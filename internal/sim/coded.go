package sim

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// CodedCluster simulates an MDS-coded master/worker cluster executing
// iterative mat-vec rounds.
type CodedCluster struct {
	Enc      *coding.EncodedMatrix
	Strategy sched.Strategy
	// Forecaster predicts next-round speeds from observed history.
	// nil means an oracle that knows the true speeds (the paper's
	// "knowing the exact speeds" configuration).
	Forecaster predict.Forecaster
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	// Numeric controls whether workers really execute their kernels and
	// the master really decodes (true: end-to-end verification) or only
	// the timing model runs (false: fast latency sweeps).
	Numeric bool
	// ReuseBuffers lets the cluster return Round.Result slices backed by
	// per-cluster storage that the NEXT RunIteration overwrites. Drivers
	// that consume each round before requesting the next (sim.RunIterative,
	// benchmarks) set it to avoid a per-round result allocation; leave it
	// false if round results must outlive the following iteration.
	ReuseBuffers bool

	eng roundEngine
	// decodeWS also caches LU factorizations of recurring worker sets
	// across rounds.
	decodeWS *coding.DecodeWorkspace
	result   []float64
}

// PredictSpeeds returns the strategy input for the given iteration: 1.0
// for every worker on the first round (the paper's bootstrap assumption),
// otherwise the forecaster's one-step-ahead estimates — or the true trace
// speeds when no forecaster is configured (oracle mode).
func (c *CodedCluster) PredictSpeeds(iter int) []float64 {
	return c.eng.history.predictInto(make([]float64, c.Trace.NumWorkers()), c.Forecaster, c.Trace, iter)
}

// RunIteration executes one coded round: plan from predicted speeds,
// simulate worker finish times from true trace speeds, apply the timeout/
// reassignment recovery, update the observed-speed history, and decode
// (in Numeric mode).
func (c *CodedCluster) RunIteration(iter int, x []float64) (*Round, error) {
	plan, err := c.eng.plan(c.Strategy, c.Forecaster, c.Trace, iter)
	if err != nil {
		return nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	round := &Round{Iter: iter}
	cost := rowCost{rows: c.Enc.BlockRows, macs: float64(c.Enc.Cols), bytes: 8}
	if err := c.eng.run(round, plan, cost, c.Strategy.NeedK(), float64(8*len(x)), c.Comm, c.Timeout); err != nil {
		return nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	if !c.Numeric {
		return round, nil
	}
	if c.decodeWS == nil {
		c.decodeWS = c.Enc.NewDecodeWorkspace()
	}
	c.result = kernel.Grow(c.result, c.Enc.OrigRows)
	dec, err := c.Enc.DecodeMatVecInto(c.result, c.eng.partialsFor(round, plan, c.Enc, x), c.decodeWS)
	if err != nil {
		return nil, fmt.Errorf("sim: iteration %d decode: %w", iter, err)
	}
	if !c.ReuseBuffers {
		dec = append([]float64(nil), dec...)
	}
	round.Result = dec
	return round, nil
}
