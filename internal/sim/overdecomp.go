package sim

import (
	"fmt"
	"sort"

	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/trace"
)

// OverDecomposition simulates the Charm++-inspired baseline of §7.2: the
// data is split into Factor×n partitions (4× over-decomposition), each
// worker starts with Factor of them, ReplicationFactor (1.42, matching a
// (10,7) code's redundancy) of the data is pre-replicated round-robin,
// and every round the master rebalances partitions to match predicted
// speeds — paying a transfer cost whenever the receiving worker does not
// already hold a copy.
type OverDecomposition struct {
	A          *mat.Dense
	Trace      *trace.Trace
	Comm       CommModel
	Forecaster predict.Forecaster // nil = oracle speeds
	// Factor is the over-decomposition multiple (paper: 4).
	Factor int
	// ReplicationFactor is total stored data / original data (paper: 1.42).
	ReplicationFactor float64
	// Numeric enables real computation.
	Numeric bool

	nParts    int
	rowsPer   int
	partBytes float64
	holds     []map[int]bool // holds[w] = partitions worker w stores
	assigned  [][]int        // assigned[w] = partitions worker w computes
	history   speedHistory
}

// Name identifies the baseline in experiment output.
func (o *OverDecomposition) Name() string { return "over-decomposition" }

func (o *OverDecomposition) factor() int {
	if o.Factor <= 0 {
		return 4
	}
	return o.Factor
}

func (o *OverDecomposition) init() {
	if o.holds != nil {
		return
	}
	n := o.Trace.NumWorkers()
	f := o.factor()
	o.nParts = n * f
	o.rowsPer = mat.PaddedRows(o.A.Rows(), o.nParts) / o.nParts
	o.partBytes = float64(8 * o.rowsPer * o.A.Cols())
	o.holds = make([]map[int]bool, n)
	o.assigned = make([][]int, n)
	for w := 0; w < n; w++ {
		o.holds[w] = map[int]bool{}
	}
	for p := 0; p < o.nParts; p++ {
		w := p / f
		o.holds[w][p] = true
		o.assigned[w] = append(o.assigned[w], p)
	}
	// Pre-replicate (ReplicationFactor−1) of the partitions round-robin on
	// the next worker over.
	rf := o.ReplicationFactor
	if rf <= 1 {
		rf = 1.42
	}
	extra := int(float64(o.nParts) * (rf - 1))
	for i := 0; i < extra; i++ {
		p := i % o.nParts
		w := (p/f + 1 + i/o.nParts) % n
		o.holds[w][p] = true
	}
}

// OverDecompRound reports one over-decomposition iteration.
type OverDecompRound struct {
	Iter       int
	Latency    float64
	Migrations int
	BytesMoved float64
	Result     []float64
}

// RunIteration rebalances to predicted speeds, pays migration costs, and
// runs the round at true speeds.
func (o *OverDecomposition) RunIteration(iter int, x []float64) (*OverDecompRound, error) {
	o.init()
	n := o.Trace.NumWorkers()
	actual := make([]float64, n)
	for w := 0; w < n; w++ {
		actual[w] = o.Trace.At(w, iter)
	}
	predicted := o.history.predictInto(make([]float64, n), o.Forecaster, o.Trace, iter)

	round := &OverDecompRound{Iter: iter}
	xBytes := float64(8 * len(x))
	round.BytesMoved += xBytes * float64(n)

	// Target partition counts proportional to predicted speed (largest
	// remainder keeps the total exact).
	target := proportionalCounts(predicted, o.nParts)

	// Rebalance: strip surplus partitions, hand them to deficit workers.
	var pool []int
	for w := 0; w < n; w++ {
		for len(o.assigned[w]) > target[w] {
			last := o.assigned[w][len(o.assigned[w])-1]
			o.assigned[w] = o.assigned[w][:len(o.assigned[w])-1]
			pool = append(pool, last)
		}
	}
	moveCost := make([]float64, n)
	for w := 0; w < n && len(pool) > 0; w++ {
		for len(o.assigned[w]) < target[w] && len(pool) > 0 {
			// Prefer a pooled partition this worker already holds.
			pick := -1
			for i, p := range pool {
				if o.holds[w][p] {
					pick = i
					break
				}
			}
			if pick < 0 {
				pick = len(pool) - 1
				p := pool[pick]
				moveCost[w] += o.Comm.TransferTime(o.partBytes)
				round.BytesMoved += o.partBytes
				round.Migrations++
				o.holds[w][p] = true
			}
			p := pool[pick]
			pool = append(pool[:pick], pool[pick+1:]...)
			o.assigned[w] = append(o.assigned[w], p)
		}
	}
	if len(pool) > 0 {
		return nil, fmt.Errorf("sim: over-decomposition left %d partitions unplaced", len(pool))
	}

	// Execute at true speeds; migrations are on the critical path (§7.2.2).
	broadcast := o.Comm.TransferTime(xBytes)
	latest := 0.0
	observed := make([]float64, n)
	for w := 0; w < n; w++ {
		rows := len(o.assigned[w]) * o.rowsPer
		if rows == 0 {
			continue
		}
		ft := broadcast + moveCost[w] + computeElems(float64(rows*o.A.Cols()), actual[w]) + o.Comm.TransferTime(float64(8*rows))
		if ft > latest {
			latest = ft
		}
		round.BytesMoved += float64(8 * rows)
		// Observed speed for the forecaster.
		observed[w] = float64(rows*o.A.Cols()) / (ft - broadcast - moveCost[w]) / ElemRate
	}
	o.history.record(observed)
	round.Latency = latest

	if o.Numeric {
		padded := mat.PadRows(o.A, o.nParts)
		y := make([]float64, padded.Rows())
		for w := 0; w < n; w++ {
			for _, p := range o.assigned[w] {
				part := mat.MatVecRows(padded, x, p*o.rowsPer, (p+1)*o.rowsPer)
				copy(y[p*o.rowsPer:], part)
			}
		}
		round.Result = y[:o.A.Rows()]
	}
	return round, nil
}

// StorageFractions returns, per worker, the fraction of the full data
// currently stored (partitions held ÷ total partitions) — the Figure 3
// metric.
func (o *OverDecomposition) StorageFractions() []float64 {
	o.init()
	out := make([]float64, len(o.holds))
	for w, h := range o.holds {
		out[w] = float64(len(h)) / float64(o.nParts)
	}
	return out
}

// proportionalCounts apportions total items to weights by largest
// remainder, guaranteeing the counts sum to total.
func proportionalCounts(weights []float64, total int) []int {
	n := len(weights)
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	counts := make([]int, n)
	if sum == 0 {
		for i := 0; total > 0; i = (i + 1) % n {
			counts[i]++
			total--
		}
		return counts
	}
	type frac struct {
		i int
		f float64
	}
	fr := make([]frac, n)
	used := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		used += counts[i]
		fr[i] = frac{i, exact - float64(counts[i])}
	}
	sort.Slice(fr, func(a, b int) bool { return fr[a].f > fr[b].f })
	for i := 0; used < total; i = (i + 1) % n {
		counts[fr[i].i]++
		used++
	}
	return counts
}
