package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// gd-straggler: logistic-regression gradient descent on a loopback
// cluster with one straggling worker, run by an S2C2 lane and an MDS lane
// that alternate iterations on the same cluster and the same encoded data.
// README.md gives the reasons for the sizes.
const (
	gdRows, gdCols = 16384, 1024
	gdN, gdK       = 4, 3
	gdSlowdown     = 3.0
	// gdStraggler is fixed rather than drawn from the seed: which worker
	// straggles moves the iteration time by more than 10%, which would
	// swamp the run-to-run spread the bounds are set from.
	gdStraggler   = 0
	gdTimeoutFrac = 0.15
	// gdBlocks measured blocks each run on a fresh set-up (see
	// serveBlocks), so the set-up is timed gdBlocks times as well. A block
	// lasts a third of the run, and at least gdMinPairs iterations of each
	// lane, so that its p90 has 10 samples beyond it.
	gdBlocks      = 3
	gdMinPairs    = 100
	gdWarmupPairs = 2
)

// gdSetup is one set-up of the cluster with both phases distributed.
type gdSetup struct {
	c        *cluster
	encs     []*coding.EncodedMatrix
	distMBps []float64 // partition bytes streamed per second, per phase
}

func setupGD(matrices []*mat.Dense, slowdown []float64, cfg runConfig) (*gdSetup, error) {
	c, err := startCluster(slowdown, cfg.relay)
	if err != nil {
		return nil, err
	}
	code, err := coding.NewMDSCode(gdN, gdK)
	if err != nil {
		c.close()
		return nil, err
	}
	s := &gdSetup{c: c}
	for p, a := range matrices {
		sp := cfg.tr.begin("coding.encode", -1, -1)
		enc := code.Encode(a)
		cfg.tr.end(sp)
		s.encs = append(s.encs, enc)
		sp = cfg.tr.begin("rpc.distribute", -1, -1)
		t0 := time.Now()
		err := c.m.DistributePartitions(p, enc)
		secs := time.Since(t0).Seconds()
		cfg.tr.end(sp)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("distribute phase %d: %w", p, err)
		}
		s.distMBps = append(s.distMBps, float64(gdN*enc.BlockRows*enc.Cols*8)/1e6/secs)
	}
	return s, nil
}

// gdLane is one strategy's run of the descent.
type gdLane struct {
	s2c2       bool
	lr         *workloads.LogisticRegression
	strategies []sched.Strategy
	state      []float64
	outputs    [][]float64
	ws         []*coding.DecodeWorkspace
	iterMs     []float64

	// S2C2 only: AR(1) forecasts of each worker's observed rate, as the
	// s2c2-master command plans.
	ar1        predict.AR1
	history    [][]float64
	pred, real []float64 // forecast vs next observed rate, for MAPE
	rounds     []roundRecord
}

type roundRecord struct {
	roundMs, firstKMs float64
	assigned          int
	reassigned        int
	graceFired        bool
}

func runGD(cfg runConfig) (*outcome, error) {
	slowdown := equalSpeeds(gdN)
	slowdown[gdStraggler] = gdSlowdown
	data := workloads.SyntheticClassification(gdRows, gdCols, cfg.seed)
	base := &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4}
	matrices := base.Matrices()
	o := &outcome{
		layer: map[string]float64{},
		inputs: map[string]any{
			"n": gdN, "k": gdK, "matrix": fmt.Sprintf("%dx%d float64 (phases X and X^T)", gdRows, gdCols),
			"slowdown": gdSlowdown, "straggler": gdStraggler, "timeout_frac": gdTimeoutFrac,
			"batch_width": 1, "tenants": 1, "data_seed": cfg.seed,
		},
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	checks := []*floatCheck{newFloatCheck(matrices[0], rng), newFloatCheck(matrices[1], rng)}
	var (
		s2c2     gdLane    // every block's S2C2-lane records, pooled
		mdsP50   []float64 // each block's MDS-lane median
		heap0    float64
		encs     []*coding.EncodedMatrix
		distMBps []float64
		bytes    int64
		rounds   int
	)
	for b := 0; b < gdBlocks && o.failed == 0; b++ {
		// Return the previous block's encoded and distributed copies
		// (about 700 MB) before this set-up allocates its own, so every
		// set-up starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		s, err := setupGD(matrices, slowdown, cfg)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		encs = s.encs
		distMBps = append(distMBps, s.distMBps...)
		if b == 0 {
			heap0 = heapInuseMB()
		}
		lanes := []*gdLane{newGDLane(true, data, base, s.encs), newGDLane(false, data, base, s.encs)}
		iters := 0
		bytes0 := s.c.relayed()
		start := time.Now()
		for pair := 0; pair < gdWarmupPairs+gdMinPairs || time.Since(start) < cfg.deadline()/gdBlocks; pair++ {
			for j := range lanes {
				// Alternate which lane goes first, so neither always inherits
				// the other's straggler work still running on the workers.
				l := lanes[(pair+j)%2]
				o.attempted++
				tag := 2*pair + j
				if err := l.iterate(s.c.m, s.encs, checks, rng, tag, int64(b)<<32|int64(tag), pair >= gdWarmupPairs, cfg.tr); err != nil {
					o.fail("gd-straggler block %d s2c2=%v iteration %d: %v", b, l.s2c2, pair, err)
					break
				}
			}
			if o.failed > 0 {
				break
			}
			iters++
		}
		bytes += s.c.relayed() - bytes0
		rounds += iters * len(lanes) * len(s.encs)
		if b == gdBlocks-1 {
			o.layer["mem.heap_inuse_mb"] = heapInuseMB()
			o.layer["mem.heap_growth_mb"] = o.layer["mem.heap_inuse_mb"] - heap0
			if cfg.tr != nil {
				o.layer["kernel.matvec_gbps"] = matvecGBps(s.encs[0].Parts[0])
			}
		}
		s.c.close()
		if o.failed == 0 {
			want, _ := workloads.RunLocal(base, iters)
			for _, l := range lanes {
				if !stateMatches(l.state, want) {
					o.fail("gd-straggler block %d s2c2=%v: final state after %d iterations differs from workloads.RunLocal", b, l.s2c2, iters)
				}
			}
		}
		o.blocks = append(o.blocks, lanes[0].iterMs)
		o.rates = append(o.rates, 1e3*float64(len(lanes[0].iterMs))/sum(lanes[0].iterMs))
		mdsP50 = append(mdsP50, median(lanes[1].iterMs))
		s2c2.pool(lanes[0])
	}

	p50, mdsMed := o.opP50(), median(mdsP50)
	tp, tail := o.tail(90)
	speedup := 0.0
	if p50 > 0 {
		speedup = mdsMed / p50
	}
	o.named = []named{
		{Name: "iter_ms_p50", Value: p50, Unit: "ms", Note: fmt.Sprintf("S2C2 lane, n=%d", o.count())},
		{Name: fmt.Sprintf("iter_ms_p%g", tp), Value: tail, Unit: "ms"},
		{Name: "speedup_vs_mds", Value: speedup, Unit: "ratio", Note: fmt.Sprintf("MDS lane p50 %.4g ms", mdsMed)},
		{Name: "iters_per_s", Value: o.opsPerSec(), Unit: "1/s", Note: "S2C2 lane"},
	}
	o.layer["sched.speedup_vs_mds"] = speedup
	o.layer["wire.distribute_mbps"] = median(distMBps)
	if cfg.tr != nil && rounds > 0 {
		o.layer["wire.bytes_per_round"] = float64(bytes) / float64(rounds)
	}
	s2c2.roundLayers(o.layer, encs)
	if mape := s2c2.mape(); mape >= 0 {
		o.layer["predict.mape"] = mape
	}
	return o, nil
}

func newGDLane(s2c2 bool, data *workloads.Classification, base *workloads.LogisticRegression, encs []*coding.EncodedMatrix) *gdLane {
	l := &gdLane{s2c2: s2c2, lr: &workloads.LogisticRegression{Data: data, LR: base.LR, Lambda: base.Lambda},
		outputs: make([][]float64, 2), history: make([][]float64, gdN)}
	for _, enc := range encs {
		if s2c2 {
			l.strategies = append(l.strategies, &sched.GeneralS2C2{N: gdN, K: gdK, BlockRows: enc.BlockRows})
		} else {
			l.strategies = append(l.strategies, &sched.ConventionalMDS{N: gdN, K: gdK, BlockRows: enc.BlockRows})
		}
		l.ws = append(l.ws, enc.NewDecodeWorkspace())
	}
	l.state = l.lr.Init()
	return l
}

// pool appends another block's round and forecast records of the same
// lane to l's.
func (l *gdLane) pool(b *gdLane) {
	l.rounds = append(l.rounds, b.rounds...)
	l.pred = append(l.pred, b.pred...)
	l.real = append(l.real, b.real...)
}

// iterate runs one GD iteration of the lane: forecast (S2C2), then for
// each phase plan, round and decode, then the update. iter tags the
// rounds and op the spans; record says whether the iteration counts
// toward the metrics.
func (l *gdLane) iterate(m *rpc.Master, encs []*coding.EncodedMatrix, checks []*floatCheck, rng *rand.Rand,
	iter int, op int64, record bool, tr *tracer) error {
	root := tr.begin("bench.iter", op, -1)
	defer tr.end(root)
	t0 := time.Now()
	speeds := equalSpeeds(gdN)
	if l.s2c2 {
		sp := tr.begin("predict.step", op, root)
		speeds = l.forecast()
		tr.end(sp)
	}
	var recs [2]roundRecord
	for p, enc := range encs {
		sp := tr.begin("workloads.step", op, root)
		in := l.lr.PhaseInput(p, l.state, l.outputs[:p])
		tr.end(sp)

		sp = tr.begin("sched.plan", op, root)
		plan, err := m.PlanRound(l.strategies[p], speeds)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("plan phase %d: %w", p, err)
		}

		sp = tr.begin("rpc.round", op, root)
		r0 := time.Now()
		partials, stats, err := m.RunRound(iter, p, in, plan, gdK, gdTimeoutFrac)
		roundMs := ms(time.Since(r0))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("round phase %d: %w", p, err)
		}
		recs[p] = newRoundRecord(roundMs, stats)
		if l.s2c2 {
			l.observe(stats, enc.Cols, speeds, p == 0)
		}

		sp = tr.begin("coding.decode", op, root)
		l.outputs[p], err = enc.DecodeMatVecInto(l.outputs[p], partials, l.ws[p])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("decode phase %d: %w", p, err)
		}
		if !checks[p].ok(l.outputs[p], in, 1, rng) {
			return fmt.Errorf("phase %d decode differs from A·x", p)
		}
	}
	sp := tr.begin("workloads.step", op, root)
	l.state, _ = l.lr.Update(l.state, l.outputs)
	tr.end(sp)
	if l.s2c2 && len(l.history[0]) >= 3 {
		sp := tr.begin("predict.step", op, root)
		l.ar1.Fit(l.history) //nolint:errcheck // a failed refit keeps the previous model, as s2c2-master does
		tr.end(sp)
	}
	if record {
		l.iterMs = append(l.iterMs, ms(time.Since(t0)))
		if l.s2c2 {
			l.rounds = append(l.rounds, recs[:]...)
		}
	}
	return nil
}

func newRoundRecord(roundMs float64, st *rpc.RoundStats) roundRecord {
	r := roundRecord{roundMs: roundMs, reassigned: st.Reassigned, graceFired: len(st.TimedOut) > 0}
	var resp []float64
	for w, d := range st.ResponseTime {
		r.assigned += st.AssignedRows[w]
		if d > 0 {
			resp = append(resp, ms(d))
		}
	}
	sort.Float64s(resp)
	if len(resp) >= gdK {
		r.firstKMs = resp[gdK-1]
	} else {
		r.firstKMs = roundMs
	}
	return r
}

// forecast predicts each worker's rate: equal speeds until a worker has
// history, then AR(1) forecasts, falling back to the last observation.
func (l *gdLane) forecast() []float64 {
	speeds := make([]float64, gdN)
	for w, h := range l.history {
		switch {
		case len(h) == 0:
			speeds[w] = 1
		default:
			speeds[w] = l.ar1.Predict(h)
			if speeds[w] <= 0 {
				speeds[w] = h[len(h)-1]
			}
		}
		if speeds[w] <= 0 {
			speeds[w] = 0.01
		}
	}
	return speeds
}

// observe appends each worker's observed rate (row·columns per second)
// to its history; a worker that did not respond repeats its last rate.
// With score set, forecasts made by a fitted model are paired with the
// observations for the MAPE.
func (l *gdLane) observe(st *rpc.RoundStats, cols int, forecast []float64, score bool) {
	fitted := len(l.history[0]) >= 3
	for w := range l.history {
		h := l.history[w]
		v := 1.0
		if st.ResponseTime[w] > 0 && st.AssignedRows[w] > 0 {
			v = float64(st.AssignedRows[w]*cols) / st.ResponseTime[w].Seconds()
			if score && fitted {
				l.pred = append(l.pred, forecast[w])
				l.real = append(l.real, v)
			}
		} else if len(h) > 0 {
			v = h[len(h)-1]
		}
		l.history[w] = append(h, v)
	}
}

// mape is the mean absolute percentage error of the forecasts as a
// fraction, or -1 before any forecast was scored.
func (l *gdLane) mape() float64 {
	if len(l.real) == 0 {
		return -1
	}
	return predict.MAPE(l.pred, l.real)
}

// roundLayers summarises the lane's rounds into the sched and rpc
// per-layer metrics.
func (l *gdLane) roundLayers(layer map[string]float64, encs []*coding.EncodedMatrix) {
	if len(l.rounds) == 0 {
		return
	}
	var roundMs, firstK, afterK []float64
	useful, assigned, reassigned, fired := 0, 0, 0, 0
	for i, r := range l.rounds {
		roundMs = append(roundMs, r.roundMs)
		firstK = append(firstK, r.firstKMs)
		afterK = append(afterK, r.roundMs-r.firstKMs)
		useful += gdK * encs[i%len(encs)].BlockRows
		assigned += r.assigned
		reassigned += r.reassigned
		if r.graceFired {
			fired++
		}
	}
	n := float64(len(l.rounds))
	layer["rpc.round_ms"] = median(roundMs)
	layer["rpc.first_k_ms"] = median(firstK)
	layer["rpc.after_k_ms"] = median(afterK)
	layer["sched.useful_frac"] = float64(useful) / float64(assigned)
	layer["sched.reassigned_rows"] = float64(reassigned) / n
	layer["sched.grace_fired_frac"] = float64(fired) / n
}

func equalSpeeds(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// matvecGBps times kernel.MatVecRange over a whole partition and returns
// the bytes of A it streams per second, in GB/s.
func matvecGBps(part *mat.Dense) float64 {
	rows, cols := part.Rows(), part.Cols()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	dst := make([]float64, rows)
	calls := 0
	t0 := time.Now()
	for calls < 3 || time.Since(t0) < 200*time.Millisecond {
		kernel.MatVecRange(dst, part.Data(), cols, x, 0, rows)
		calls++
	}
	return float64(calls*rows*cols*8) / time.Since(t0).Seconds() / 1e9
}
