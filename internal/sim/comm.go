// Package sim is the discrete-event cluster substrate that stands in for
// the paper's physical testbeds (a local Xeon cluster and Digital Ocean
// droplets; the speed traces come from internal/trace). Workers actually
// execute their coded kernels on real data, so decoded results are
// verifiably correct, while elapsed time is *virtual*: it is derived from
// per-worker speed traces and a communication model rather than
// wall-clock measurement. That makes every experiment deterministic,
// seedable, and fast.
//
// Coded rounds run on one round model (round.go): predict speeds from the
// observed history, plan, time every worker at its true speed, walk
// arrivals to first-k coverage, apply the §4.3 timeout and reassign the
// timed-out coverage to finished workers, account the round and record
// the observed speeds. Two codes drive it and differ only in what a
// partition row costs and how results are computed and decoded:
//
//   - CodedCluster: MDS-coded mat-vec rounds under any sched.Strategy
//     (conventional MDS, basic S2C2, general S2C2).
//   - PolyCluster: polynomial-coded bilinear (Hessian) rounds ± S2C2,
//     with recovery threshold a·b in place of k.
//
// Two uncoded baselines have their own round logic:
//
//   - UncodedReplication: the Hadoop/LATE-style 3-replication baseline
//     with speculative re-execution.
//   - OverDecomposition: the Charm++-style baseline combining 4×
//     over-decomposition, partial replication and prediction-driven
//     partition migration; it shares the coded clusters' speed history.
package sim

// CommModel is the network cost model: every message pays Latency, and
// payloads stream at Bandwidth bytes per virtual second.
type CommModel struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
}

// DefaultComm roughly matches a 10 GbE datacenter network.
func DefaultComm() CommModel {
	return CommModel{Latency: 0.001, Bandwidth: 1.25e9}
}

// TransferTime returns the virtual time to move `bytes` in one message.
func (c CommModel) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return c.Latency
	}
	return c.Latency + bytes/c.Bandwidth
}

// ElemRate converts trace speed units into multiply-accumulates per
// virtual second: a speed-1.0 worker performs ElemRate MACs/second. Using
// element counts (rows × row width) rather than raw row counts keeps
// phases with different matrix shapes — e.g. X and Xᵀ in gradient
// descent — correctly weighted.
const ElemRate = 200000.0

// computeElems returns the virtual seconds a worker at `speed` needs for
// `elems` multiply-accumulates. Zero/negative speed is guarded with a
// huge constant; callers must not schedule work on such workers.
func computeElems(elems float64, speed float64) float64 {
	if elems <= 0 {
		return 0
	}
	if speed <= 0 {
		return 1e18
	}
	return elems / (speed * ElemRate)
}
