package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// sim-cloud: the paper's §7.2.2 comparison on the simulator — SVM under
// S2C2(10,7) and MDS(10,7) on a volatile cloud speed trace, with an LSTM
// forecaster fitted on a disjoint trace of the same environment. The
// simulator runs real encode, compute and decode (Numeric) in virtual
// time, so its virtual metrics repeat exactly for a seed.
const (
	simN, simK           = 10, 7
	simRows, simCols     = 2800, 280
	simIters             = 15
	simTrainSteps        = 200
	simLSTMEpochs        = 30
	simSetups            = 5
	simJobsPerBlock      = 20
	simTrainSeedDistance = 1000
)

// timedIterative records the wall time of each iteration of the workload
// it wraps: from the first phase's input to the end of the update.
type timedIterative struct {
	workloads.Iterative
	start  time.Time
	iterMs []float64
}

func (t *timedIterative) PhaseInput(p int, state []float64, outputs [][]float64) []float64 {
	if p == 0 {
		t.start = time.Now()
	}
	return t.Iterative.PhaseInput(p, state, outputs)
}

func (t *timedIterative) Update(state []float64, outputs [][]float64) ([]float64, bool) {
	next, done := t.Iterative.Update(state, outputs)
	t.iterMs = append(t.iterMs, ms(time.Since(t.start)))
	return next, done
}

func runSimCloud(cfg runConfig) (*outcome, error) {
	data := workloads.SyntheticClassification(simRows, simCols, cfg.seed)
	newSVM := func() *workloads.SVM { return &workloads.SVM{Data: data, LR: 0.2, Lambda: 1e-3} }
	train := trace.CloudVolatile(simN, simTrainSteps, cfg.seed+simTrainSeedDistance)
	tr := trace.CloudVolatile(simN, simIters+5, cfg.seed)
	o := &outcome{
		layer: map[string]float64{},
		inputs: map[string]any{
			"n": simN, "k": simK, "matrix": fmt.Sprintf("%dx%d float64 SVM (phases X and X^T)", simRows, simCols),
			"trace":              fmt.Sprintf("CloudVolatile %d workers x %d steps", simN, simIters+5),
			"forecaster":         fmt.Sprintf("LSTM, %d epochs on a disjoint %d-step trace", simLSTMEpochs, simTrainSteps),
			"iterations_per_job": simIters, "lanes": "S2C2(10,7) and MDS(10,7)", "data_seed": cfg.seed,
		},
	}
	matrices := newSVM().Matrices()

	var fc predict.Forecaster
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		lcfg := predict.DefaultLSTMConfig()
		lcfg.Seed, lcfg.Epochs = cfg.seed, simLSTMEpochs
		lstm := predict.NewLSTM(lcfg)
		sp := cfg.tr.begin("predict.step", -1, -1)
		err := lstm.Fit(train.Speeds)
		cfg.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("fit LSTM: %w", err)
		}
		code, err := coding.NewMDSCode(simN, simK)
		if err != nil {
			return nil, err
		}
		var enc *coding.EncodedMatrix
		for _, a := range matrices {
			sp := cfg.tr.begin("coding.encode", -1, -1)
			enc = code.Encode(a)
			cfg.tr.end(sp)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		fc = lstm
		if cfg.tr != nil && i == simSetups-1 {
			o.layer["kernel.matvec_gbps"] = matvecGBps(enc.Parts[0])
		}
	}
	heap0 := heapInuseMB()

	want, _ := workloads.RunLocal(newSVM(), simIters)
	lanes := []struct {
		name    string
		factory sim.StrategyFactory
		w       *timedIterative
		first   *sim.Aggregate
	}{
		{"s2c2", sim.S2C2Factory(simN, simK, 0), &timedIterative{Iterative: newSVM()}, nil},
		{"mds", sim.MDSFactory(simN, simK), &timedIterative{Iterative: newSVM()}, nil},
	}
	// Whole blocks of simJobsPerBlock jobs per lane run until the time is
	// up.
	start := time.Now()
	blockStart := 0
	for job := 0; job%simJobsPerBlock != 0 || time.Since(start) < cfg.deadline(); job++ {
		for i := range lanes {
			l := &lanes[(job+i)%2]
			o.attempted++
			root := cfg.tr.begin("bench.job", int64(job), -1)
			sp := cfg.tr.begin("sim.run", int64(job), root)
			res, err := sim.RunIterative(l.w, sim.JobConfig{
				N: simN, K: simK, Strategy: l.factory, Forecaster: fc, Trace: tr,
				Comm: sim.DefaultComm(), Timeout: sim.DefaultTimeout(), Numeric: true, MaxIter: simIters,
			})
			cfg.tr.end(sp)
			cfg.tr.end(root)
			switch {
			case err != nil:
				o.fail("sim-cloud %s job %d: %v", l.name, job, err)
			case !stateMatches(res.State, want):
				o.fail("sim-cloud %s job %d: state differs from workloads.RunLocal", l.name, job)
			case l.first != nil && !sameVirtual(l.first, res.Aggregate):
				o.fail("sim-cloud %s job %d: virtual-time results differ from job 0", l.name, job)
			case l.first == nil:
				l.first = res.Aggregate
			}
		}
		if o.failed > 0 {
			break
		}
		if (job+1)%simJobsPerBlock == 0 {
			it := lanes[0].w.iterMs[blockStart:]
			o.blocks = append(o.blocks, it)
			o.rates = append(o.rates, 1e3*float64(len(it))/sum(it))
			blockStart = len(lanes[0].w.iterMs)
		}
	}
	s2c2, mds := lanes[0], lanes[1]
	o.layer["mem.heap_inuse_mb"] = heapInuseMB()
	o.layer["mem.heap_growth_mb"] = o.layer["mem.heap_inuse_mb"] - heap0
	tp, tail := o.tail(90)
	o.named = []named{
		{Name: "sim_iter_ms_p50", Value: o.opP50(), Unit: "ms", Note: fmt.Sprintf("S2C2 lane, n=%d", o.count())},
		{Name: fmt.Sprintf("sim_iter_ms_p%g", tp), Value: tail, Unit: "ms"},
	}
	if s2c2.first != nil && mds.first != nil {
		speedup := mds.first.MeanLatency() / s2c2.first.MeanLatency()
		waste := s2c2.first.TotalWastedFraction()
		o.named = append(o.named,
			named{Name: "sim_speedup_vs_mds", Value: speedup, Unit: "ratio", Note: "virtual mean iteration latency, MDS ÷ S2C2"},
			named{Name: "sim_waste_frac", Value: waste, Unit: "fraction", Note: "S2C2 lane"})
		o.layer["sim.speedup_vs_mds"] = speedup
		o.layer["sim.waste_frac"] = waste
		o.layer["sim.mispred_frac"] = s2c2.first.MispredictionRate()
	}
	return o, nil
}

// sameVirtual reports whether two jobs' virtual-time accounting is
// identical.
func sameVirtual(a, b *sim.Aggregate) bool {
	if a.Rounds != b.Rounds || a.TotalLatency != b.TotalLatency || a.Mispredictions != b.Mispredictions ||
		a.ReassignedRows != b.ReassignedRows || a.BytesMoved != b.BytesMoved {
		return false
	}
	return slices.Equal(a.PerWorkerComputed, b.PerWorkerComputed) && slices.Equal(a.PerWorkerUsed, b.PerWorkerUsed)
}
