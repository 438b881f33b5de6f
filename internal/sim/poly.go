package sim

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// PolyCluster simulates polynomial-coded bilinear rounds (the §7.2.3
// Hessian workload) with or without S2C2 workload distribution. The
// recovery threshold is a·b instead of k, and a worker's per-row kernel is
// BlockColsB multiply-accumulate columns wide; otherwise the round model
// is CodedCluster's.
type PolyCluster struct {
	Enc        *coding.EncodedBilinear
	Strategy   sched.Strategy
	Forecaster predict.Forecaster // nil = oracle
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	Numeric    bool
	// ReuseBuffers lets the cluster back Round.Result with per-cluster
	// storage overwritten by the next RunIteration (see CodedCluster).
	ReuseBuffers bool

	eng      roundEngine
	decodeWS *coding.PolyDecodeWorkspace
	result   *mat.Dense
}

// PolyRound reports one bilinear iteration: Round's accounting, with the
// decoded product in Result (the embedded Round.Result stays nil).
type PolyRound struct {
	Round
	Result *mat.Dense
}

// RunIteration executes one Hessian round on the diagonal vector d.
//
// One output row of Ã_wᵀ·diag(d)·B̃_w costs RowsM·BlockColsB
// multiply-accumulates — far more than a mat-vec row — and its reply
// carries BlockColsB values.
func (c *PolyCluster) RunIteration(iter int, d []float64) (*PolyRound, error) {
	plan, err := c.eng.plan(c.Strategy, c.Forecaster, c.Trace, iter)
	if err != nil {
		return nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
	}
	round := &PolyRound{Round: Round{Iter: iter}}
	cost := rowCost{rows: c.Enc.BlockColsA, macs: float64(c.Enc.RowsM * c.Enc.BlockColsB), bytes: 8 * c.Enc.BlockColsB}
	if err := c.eng.run(&round.Round, plan, cost, c.Strategy.NeedK(), float64(8*len(d)), c.Comm, c.Timeout); err != nil {
		return nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
	}
	if !c.Numeric {
		return round, nil
	}
	if c.decodeWS == nil {
		c.decodeWS = c.Enc.NewDecodeWorkspace()
	}
	if c.result == nil {
		c.result = mat.New(c.Enc.ColsA, c.Enc.ColsB)
	}
	dec, err := c.Enc.DecodeInto(c.result, c.eng.partialsFor(&round.Round, plan, c.Enc, d), c.decodeWS)
	if err != nil {
		return nil, fmt.Errorf("sim: poly iteration %d decode: %w", iter, err)
	}
	if !c.ReuseBuffers {
		dec = dec.Clone()
	}
	round.Result = dec
	return round, nil
}
