package sim

import (
	"fmt"
	"sort"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// TimeoutPolicy is the §4.3 recovery rule: after the first k workers
// respond, the remaining workers get Fraction (paper: 0.15, matching the
// predictor's ~16.7% error) of the mean response time of those k; work
// still pending at the deadline is reassigned to the finished workers.
type TimeoutPolicy struct {
	Fraction float64
}

// DefaultTimeout returns the paper's 15% policy.
func DefaultTimeout() TimeoutPolicy { return TimeoutPolicy{Fraction: 0.15} }

// Round captures one iteration's outcome and accounting.
type Round struct {
	Iter    int
	Latency float64 // virtual seconds, broadcast to decodable
	// Result is the decoded product (Numeric mode) or nil.
	Result []float64
	// ComputedRows[w] is what worker w was asked to compute (including
	// reassignments); UsedRows[w] is how much of it the master consumed.
	ComputedRows []int
	UsedRows     []int
	// ReassignedRows counts rows re-executed after the timeout fired.
	ReassignedRows int
	// TimedOut lists workers whose results were abandoned.
	TimedOut []int
	// Mispredicted reports whether the timeout mechanism fired.
	Mispredicted bool
	// BytesMoved is the round's traffic: the input broadcast, one 64-byte
	// assignment per helper given reassigned rows, and every used reply.
	BytesMoved float64
}

// speedHistory is each worker's series of observed speeds (ℓ/t, §6.2),
// one value per round, that a forecaster predicts from.
type speedHistory [][]float64

// predictInto writes the speeds to plan iteration iter with: the trace's
// true speeds without a forecaster (the paper's "knowing the exact
// speeds" oracle), 1 for every worker before the first observation (the
// §6.2 bootstrap), and otherwise the forecast — falling back to the last
// observation, then to 0.01, when the forecast is not positive.
func (h speedHistory) predictInto(dst []float64, fc predict.Forecaster, tr *trace.Trace, iter int) []float64 {
	for w := range dst {
		switch {
		case fc == nil:
			dst[w] = tr.At(w, iter)
		case len(h) == 0:
			dst[w] = 1
		default:
			dst[w] = fc.Predict(h[w])
			if dst[w] <= 0 {
				dst[w] = h[w][len(h[w])-1]
			}
			if dst[w] <= 0 {
				dst[w] = 0.01
			}
		}
	}
	return dst
}

// record appends one round's observations. A worker with none (it was
// idle) carries its last value, or 1 before its first, so the forecaster
// sees a continuous series.
func (h *speedHistory) record(observed []float64) {
	if *h == nil {
		*h = make(speedHistory, len(observed))
	}
	for w, v := range observed {
		if v <= 0 {
			v = 1
			if s := (*h)[w]; len(s) > 0 {
				v = s[len(s)-1]
			}
		}
		(*h)[w] = append((*h)[w], v)
	}
}

// rowCost is what one partition row costs on a code.
type rowCost struct {
	rows  int     // rows in a worker's partition
	macs  float64 // multiply-accumulates to compute one row
	bytes int     // bytes of one row's reply
}

// finish is when a worker that starts rows at start, at speed, has its
// reply at the master.
func (c rowCost) finish(comm CommModel, start float64, rows int, speed float64) float64 {
	return start + computeElems(float64(rows)*c.macs, speed) + comm.TransferTime(float64(rows*c.bytes))
}

// workerFinish orders workers by completion time.
type workerFinish struct {
	w      int
	finish float64
	rows   int
}

// helper is a finished worker that may re-execute timed-out rows.
type helper struct {
	w     int
	extra int
}

// workerComputer runs a worker's coded kernel on the given rows.
type workerComputer interface {
	WorkerComputeInto(w int, in []float64, ranges []coding.Range, dst *coding.Partial) *coding.Partial
}

// roundEngine is the round model CodedCluster and PolyCluster share:
// predict speeds, plan, time every worker at its true speed, walk arrivals
// to first-k coverage, apply the §4.3 deadline, reassign timed-out
// coverage to finished workers, account the round and observe speeds.
// Its buffers are recycled across iterations.
type roundEngine struct {
	history                     speedHistory
	planBuf                     sched.PlanBuffer // double-buffered round plans
	predicted, actual, observed []float64
	cov                         []int
	finishes                    []workerFinish
	helpers                     []helper
	has                         []bool           // has[i*rows+r]: helpers[i] covers row r
	extra                       [][]coding.Range // extra[w]: rows w re-executes as a helper
	ranges                      []coding.Range
	partialBuf                  []*coding.Partial // per-worker reusable partials
	partials                    []*coding.Partial // what the last decode consumed
}

// plan predicts iteration iter's speeds, plans the round against them and
// reads the true speeds the round runs at.
func (e *roundEngine) plan(s sched.Strategy, fc predict.Forecaster, tr *trace.Trace, iter int) (*sched.Plan, error) {
	n := tr.NumWorkers()
	e.predicted = e.history.predictInto(kernel.Grow(e.predicted, n), fc, tr, iter)
	plan, err := e.planBuf.Next(s, e.predicted)
	if err != nil {
		return nil, err
	}
	e.actual = kernel.Grow(e.actual, n)
	for w := range e.actual {
		e.actual[w] = tr.At(w, iter)
	}
	return plan, nil
}

// run times one round of plan, k replies per row, after an input
// broadcast of inputBytes. It fills r's accounting, records which rows each
// helper re-executes (e.extra) and appends the observed speeds to the
// history.
func (e *roundEngine) run(r *Round, plan *sched.Plan, cost rowCost, k int, inputBytes float64, comm CommModel, timeout TimeoutPolicy) error {
	n := len(e.actual)
	r.ComputedRows = make([]int, n)
	r.UsedRows = make([]int, n)
	broadcast := comm.TransferTime(inputBytes)
	r.BytesMoved = inputBytes * float64(n)
	finishes := e.finishes[:0]
	for w := 0; w < n; w++ {
		if rows := plan.RowsFor(w); rows > 0 {
			r.ComputedRows[w] = rows
			finishes = append(finishes, workerFinish{w: w, finish: cost.finish(comm, broadcast, rows, e.actual[w]), rows: rows})
		}
	}
	e.finishes = finishes
	if len(finishes) < k {
		return fmt.Errorf("plan uses %d workers, need at least %d", len(finishes), k)
	}
	sort.Slice(finishes, func(i, j int) bool { return finishes[i].finish < finishes[j].finish })

	// Walk arrivals until every row has k replies.
	cov := e.resetCov(cost.rows)
	needed := cost.rows
	coveredAt := -1.0
	usedUpTo := -1 // index into finishes of the last needed arrival
	for i, f := range finishes {
		for _, rg := range plan.Assignments[f.w] {
			for row := rg.Lo; row < rg.Hi; row++ {
				cov[row]++
				if cov[row] == k {
					needed--
				}
			}
		}
		if needed == 0 {
			coveredAt, usedUpTo = f.finish, i
			break
		}
	}

	// Timeout deadline per §4.3: after the first k responses, stragglers
	// get Fraction of the mean response time. Two refinements keep the
	// rule sound when S2C2 assigns *unequal* loads by design: the deadline
	// never precedes (a) the k-th response (the paper measures from there)
	// or (b) (1+Fraction) × the plan's own expected makespan under the
	// predicted speeds — a worker on schedule with its assignment is not a
	// straggler merely because lightly-loaded peers answered sooner.
	meanK := 0.0
	for _, f := range finishes[:k] {
		meanK += f.finish
	}
	meanK /= float64(k)
	deadline := meanK * (1 + timeout.Fraction)
	planned := 0.0
	for w := 0; w < n; w++ {
		if rows := plan.RowsFor(w); rows > 0 {
			planned = max(planned, cost.finish(comm, broadcast, rows, e.predicted[w]))
		}
	}
	deadline = max(deadline, planned*(1+timeout.Fraction), finishes[k-1].finish)

	e.extra = kernel.GrowSlice(e.extra, n)
	for w := range e.extra {
		e.extra[w] = e.extra[w][:0]
	}
	if coveredAt >= 0 && coveredAt <= deadline {
		// Coverage reached before the timeout; later replies are ignored
		// (conventional MDS's discarded stragglers).
		r.Latency = coveredAt
		for _, f := range finishes[:usedUpTo+1] {
			r.UsedRows[f.w] = f.rows
		}
	} else if err := e.reassign(r, plan, cost, k, deadline, comm); err != nil {
		return err
	}
	for _, used := range r.UsedRows {
		r.BytesMoved += float64(used * cost.bytes)
	}

	// Observed speeds from response times (§6.2: ℓ/t). A timed-out
	// worker's result still arrives eventually — off the critical path —
	// so the master measures its true rate and the predictor converges
	// instead of repeating the same over-estimate every round.
	e.observed = kernel.GrowZeroed(e.observed, n)
	for _, f := range finishes {
		ct := f.finish - broadcast - comm.TransferTime(float64(f.rows*cost.bytes))
		if ct <= 0 {
			ct = 1e-9
		}
		e.observed[f.w] = float64(f.rows) * cost.macs / ct / ElemRate
	}
	e.history.record(e.observed)
	return nil
}

// resetCov returns the zeroed per-row coverage counters.
func (e *roundEngine) resetCov(rows int) []int {
	e.cov = kernel.GrowInts(e.cov, rows)
	clear(e.cov)
	return e.cov
}

// reassign is the mis-prediction path: workers that blew the deadline are
// abandoned and the coverage they owed is re-executed, row by row, by the
// finished worker with the least projected extra time that does not
// already cover the row. The round completes when the last helper's
// assignment message, compute and reply are done.
func (e *roundEngine) reassign(r *Round, plan *sched.Plan, cost rowCost, k int, deadline float64, comm CommModel) error {
	r.Mispredicted = true
	for _, f := range e.finishes {
		if f.finish <= deadline {
			r.UsedRows[f.w] = f.rows
		} else {
			r.TimedOut = append(r.TimedOut, f.w)
		}
	}
	cov := e.resetCov(cost.rows)
	helpers := e.helpers[:0]
	for w, used := range r.UsedRows {
		if used > 0 {
			helpers = append(helpers, helper{w: w})
		}
	}
	e.helpers = helpers
	e.has = kernel.GrowSlice(e.has, len(helpers)*cost.rows)
	for i, h := range helpers {
		has := e.has[i*cost.rows : (i+1)*cost.rows]
		clear(has)
		for _, rg := range plan.Assignments[h.w] {
			for row := rg.Lo; row < rg.Hi; row++ {
				has[row] = true
				cov[row]++
			}
		}
	}
	for row := 0; row < cost.rows; row++ {
		for cov[row] < k {
			best := -1
			bestLoad := 0.0
			for i, h := range helpers {
				if e.has[i*cost.rows+row] {
					continue
				}
				load := float64(h.extra+1) / max(e.actual[h.w], 1e-9)
				if best < 0 || load < bestLoad {
					best, bestLoad = i, load
				}
			}
			if best < 0 {
				return fmt.Errorf("cannot re-cover row %d", row)
			}
			w := helpers[best].w
			e.has[best*cost.rows+row] = true
			helpers[best].extra++
			cov[row]++
			r.ReassignedRows++
			if ex := e.extra[w]; len(ex) > 0 && ex[len(ex)-1].Hi == row {
				ex[len(ex)-1].Hi++
			} else {
				e.extra[w] = append(ex, coding.Range{Lo: row, Hi: row + 1})
			}
		}
	}
	r.Latency = deadline
	for _, h := range helpers {
		if h.extra == 0 {
			continue
		}
		r.ComputedRows[h.w] += h.extra
		r.UsedRows[h.w] += h.extra
		r.Latency = max(r.Latency, cost.finish(comm, deadline+comm.TransferTime(64), h.extra, e.actual[h.w]))
		r.BytesMoved += 64
	}
	return nil
}

// partialsFor runs the numeric pass of round r: every worker whose reply
// the round used computes its planned rows plus the rows it re-executed
// as a helper — exactly r's coverage — and the partials for the decode
// are returned.
func (e *roundEngine) partialsFor(r *Round, plan *sched.Plan, enc workerComputer, in []float64) []*coding.Partial {
	e.partialBuf = kernel.GrowSlice(e.partialBuf, len(r.UsedRows))
	e.partials = e.partials[:0]
	for w, used := range r.UsedRows {
		if used == 0 {
			continue
		}
		e.ranges = append(append(e.ranges[:0], plan.Assignments[w]...), e.extra[w]...)
		e.partialBuf[w] = enc.WorkerComputeInto(w, in, e.ranges, e.partialBuf[w])
		e.partials = append(e.partials, e.partialBuf[w])
	}
	return e.partials
}
