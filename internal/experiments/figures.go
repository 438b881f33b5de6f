package experiments

import (
	"fmt"
	"math"

	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// RunPredictorAccuracy reproduces §6.1: MAPE of the LSTM vs the ARIMA
// family on held-out speed data (80:20 split). Paper: LSTM 16.7%, 5
// points better than ARIMA(1,0,0).
func RunPredictorAccuracy(c Config) ([]*Table, error) {
	tr := trace.DigitalOceanLike(24, 150*c.scale(), c.Seed)
	lstmCfg := predict.DefaultLSTMConfig()
	lstmCfg.Seed = c.Seed
	lstmCfg.Epochs = 30 * c.scale()
	models := []predict.Forecaster{
		predict.NewLSTM(lstmCfg),
		&predict.AR1{},
		&predict.AR2{},
		&predict.ARIMA111{},
		predict.LastValue{},
		// NWS-style per-node model selection (extension; §8 related work).
		&predict.Ensemble{Models: []predict.Forecaster{
			&predict.AR1{}, &predict.AR2{}, &predict.ARIMA111{}, predict.LastValue{},
		}},
	}
	t := &Table{
		Title:   "E0 (§6.1): one-step speed-prediction error, 80:20 split",
		Headers: []string{"model", "MAPE"},
		Notes: []string{
			"paper: LSTM 16.7% MAPE on measured droplet traces, 5pts better than ARIMA(1,0,0)",
			"traces here are synthetic (internal/trace); relative ordering is the reproduced result",
		},
	}
	for _, m := range models {
		mape, err := predict.Evaluate(m, tr.Speeds, 0.8)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name(), pct(mape))
	}
	return []*Table{t}, nil
}

// RunFig1Motivation reproduces Figure 1: logistic-regression latency for
// uncoded-3-replication, (12,10)-MDS and (12,9)-MDS as stragglers grow
// from 0 to 3 on a 12-worker cluster.
func RunFig1Motivation(c Config) ([]*Table, error) {
	lr := lrWorkload(c)
	iters := c.iters()
	t := &Table{
		Title:   "Figure 1: LR computation latency vs stragglers (normalized to uncoded @ 0)",
		Headers: []string{"stragglers", "uncoded-3rep", "mds(12,10)", "mds(12,9)"},
		Notes:   []string{"paper shape: uncoded degrades sharply ≥3; (12,10) degrades >2; (12,9) flat but higher baseline"},
	}
	var base float64
	for s := 0; s <= 3; s++ {
		tr := trace.ControlledCluster(12, s, iters+5, c.Seed+int64(s))
		unc, err := runUncodedJob(lr, tr, iters)
		if err != nil {
			return nil, err
		}
		mds10, err := runCodedJob(lr, 12, 10, sim.MDSFactory(12, 10), nil, tr.Clone(), iters)
		if err != nil {
			return nil, err
		}
		mds9, err := runCodedJob(lr, 12, 9, sim.MDSFactory(12, 9), nil, tr.Clone(), iters)
		if err != nil {
			return nil, err
		}
		if s == 0 {
			base = unc.MeanLatency()
		}
		t.AddRow(fmt.Sprintf("%d", s),
			f2(unc.MeanLatency()/base),
			f2(mds10.MeanLatency()/base),
			f2(mds9.MeanLatency()/base))
	}
	return []*Table{t}, nil
}

// RunFig2Traces reproduces Figure 2's measurement campaign: per-node
// speed traces with slow drift and occasional regime shifts. The table
// summarises four representative nodes; the raw series can be exported as
// CSV via cmd/s2c2-exp -csv.
func RunFig2Traces(c Config) ([]*Table, error) {
	tr := trace.DigitalOceanLike(100, 100*c.scale(), c.Seed)
	reps := []int{0, 7, 24, 61} // a straggler-episode node and three others
	t := &Table{
		Title:   "Figure 2: representative node speed traces (speed normalized to node max)",
		Headers: []string{"node", "mean", "min", "max", "mean |Δ|/step", "10-step drift"},
		Notes: []string{
			"paper observation: speed stays within ~10% over ~10-sample neighbourhoods",
		},
	}
	for _, w := range reps {
		s := tr.Row(w)
		max := 0.0
		for _, v := range s {
			max = math.Max(max, v)
		}
		mean, lo, step := 0.0, math.Inf(1), 0.0
		for i, v := range s {
			mean += v / max
			lo = math.Min(lo, v/max)
			if i > 0 {
				step += math.Abs(v-s[i-1]) / s[i-1]
			}
		}
		mean /= float64(len(s))
		step /= float64(len(s) - 1)
		// Mean relative change across a 10-step window.
		drift := 0.0
		cnt := 0
		for i := 10; i < len(s); i++ {
			drift += math.Abs(s[i]-s[i-10]) / s[i-10]
			cnt++
		}
		drift /= float64(cnt)
		t.AddRow(fmt.Sprintf("worker%d", w), f3(mean), f3(lo), "1.000", pct(step), pct(drift))
	}
	return []*Table{t}, nil
}

// RunFig3Storage reproduces Figure 3: per-node effective storage needed
// to avoid data movement, uncoded-with-prediction vs S2C2, across 270
// gradient-descent iterations. Paper: uncoded converges to ~67% of the
// full data per node; S2C2 with (12,10) coding stays fixed at 10%.
func RunFig3Storage(c Config) ([]*Table, error) {
	iters := 270
	sample := 30
	s := c.scale()
	data := workloads.SyntheticClassification(240*s, 20*s, c.Seed)
	lr := &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 0}
	tr := trace.CloudVolatile(12, iters+5, c.Seed)
	fc, err := fitForecaster(c, trace.CloudVolatile, 12)
	if err != nil {
		return nil, err
	}
	// Uncoded with perfect load-balance: the over-decomposition engine
	// tracks every partition a node ever hosts.
	_, engines, err := runOverDecompJob(lr, fc, tr, iters)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 3: mean per-node storage to avoid data movement (fraction of full data)",
		Headers: []string{"iteration", "uncoded (prediction + migration)", "s2c2 (12,10)-MDS"},
		Notes:   []string{"paper: uncoded needs 67% of data per node by iteration 270; S2C2 fixed at 1/k = 10%"},
	}
	// Sample storage growth by re-running in stages (engines accumulate
	// state, so we re-run from scratch for each sample point).
	for at := sample; at <= iters; at += sample * 2 {
		tr2 := trace.CloudVolatile(12, iters+5, c.Seed)
		_, engs, err := runOverDecompJob(lr, fc, tr2, at)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		for _, e := range engs {
			fs := e.StorageFractions()
			m := 0.0
			for _, f := range fs {
				m += f
			}
			frac += m / float64(len(fs))
		}
		frac /= float64(len(engs))
		t.AddRow(fmt.Sprintf("%d", at), pct(frac), pct(0.10))
	}
	_ = engines
	return []*Table{t}, nil
}

// strategyColumns is the Figure 6/7 strategy lineup.
func strategyColumns(n, kAggressive, kConservative, granularity int) []struct {
	name    string
	factory sim.StrategyFactory
	k       int
} {
	return []struct {
		name    string
		factory sim.StrategyFactory
		k       int
	}{
		{fmt.Sprintf("mds(%d,%d)", n, kAggressive), sim.MDSFactory(n, kAggressive), kAggressive},
		{fmt.Sprintf("mds(%d,%d)", n, kConservative), sim.MDSFactory(n, kConservative), kConservative},
		{fmt.Sprintf("s2c2-basic(%d,%d)", n, kConservative), sim.BasicS2C2Factory(n, kConservative, granularity), kConservative},
		{fmt.Sprintf("s2c2(%d,%d)", n, kConservative), sim.S2C2Factory(n, kConservative, granularity), kConservative},
	}
}

// runControlledComparison renders the Figure 6/7 layout for a workload:
// relative execution time vs straggler count for the five strategies on
// the 12-worker controlled cluster.
func runControlledComparison(c Config, w func() workloads.Iterative, title string) (*Table, error) {
	iters := c.iters()
	cols := strategyColumns(12, 10, 6, 120)
	t := &Table{
		Title:   title,
		Headers: append([]string{"stragglers", "uncoded-3rep+spec"}, colNames(cols)...),
		Notes: []string{
			"normalized to uncoded @ 0 stragglers",
			"coded strategies use oracle speeds for basic/conventional rows and exact speeds for general S2C2 (the paper's 'knowing the exact speeds')",
		},
	}
	var base float64
	for s := 0; s <= 6; s++ {
		tr := trace.ControlledCluster(12, s, iters+5, c.Seed+int64(100+s))
		unc, err := runUncodedJob(w(), tr, iters)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", s)}
		if s == 0 {
			base = unc.MeanLatency()
		}
		row = append(row, f2(unc.MeanLatency()/base))
		for _, col := range cols {
			agg, err := runCodedJob(w(), 12, col.k, col.factory, nil, tr.Clone(), iters)
			if err != nil {
				// Conventional/basic coding cannot tolerate more stragglers
				// than n−k only when fewer than k workers remain usable;
				// report the blow-up as the straggler-bound latency.
				return nil, fmt.Errorf("%s @ %d stragglers: %w", col.name, s, err)
			}
			row = append(row, f2(agg.MeanLatency()/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func colNames(cols []struct {
	name    string
	factory sim.StrategyFactory
	k       int
}) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

// RunFig6LogisticRegression reproduces Figure 6.
func RunFig6LogisticRegression(c Config) ([]*Table, error) {
	t, err := runControlledComparison(c, func() workloads.Iterative { return lrWorkload(c) },
		"Figure 6: LR relative execution time vs stragglers (12 workers)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// RunFig7PageRank reproduces Figure 7.
func RunFig7PageRank(c Config) ([]*Table, error) {
	t, err := runControlledComparison(c, func() workloads.Iterative { return prWorkload(c) },
		"Figure 7: PageRank relative execution time vs stragglers (12 workers)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
