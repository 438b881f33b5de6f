package sim

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// goldenRound is one round's accounting. The golden test compares every
// field exactly: the simulator runs in virtual time, so any change of a
// value is a change of behaviour.
type goldenRound struct {
	latency      float64
	computed     []int
	used         []int
	reassigned   int
	mispredicted bool
	timedOut     []int
	bytes        float64
}

func goldenOf(r *Round) goldenRound {
	return goldenRound{r.Latency, r.ComputedRows, r.UsedRows, r.ReassignedRows, r.Mispredicted, r.TimedOut, r.BytesMoved}
}

func runCodedGolden(t *testing.T, c *CodedCluster, x []float64, rounds int) []goldenRound {
	t.Helper()
	var out []goldenRound
	for iter := 0; iter < rounds; iter++ {
		r, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenOf(r))
	}
	return out
}

func goldenPolyCluster(t *testing.T, tr *trace.Trace, fc predict.Forecaster) (*PolyCluster, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(302))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	code, err := coding.NewPolyCode(12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	return &PolyCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Forecaster: fc,
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}, d
}

var goldenScenarios = []struct {
	name string
	run  func(t *testing.T) []goldenRound
}{
	{"coded oracle stragglers", func(t *testing.T) []goldenRound {
		n, k := 6, 4
		tr := trace.ControlledCluster(n, 2, 30, 4)
		strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: mat.PaddedRows(60, k) / k, Granularity: 60}
		c, _, x, _ := buildCluster(t, n, k, 60, tr, strat, nil)
		return runCodedGolden(t, c, x, 4)
	}},
	{"coded mispredicted", func(t *testing.T) []goldenRound {
		n, k := 5, 3
		tr := trace.ControlledCluster(n, 0, 30, 5)
		tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 50})
		strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: mat.PaddedRows(30, k) / k, Granularity: 30}
		c, _, x, _ := buildCluster(t, n, k, 30, tr, strat, constantForecaster{1})
		return runCodedGolden(t, c, x, 2)
	}},
	{"coded AR(1) history", func(t *testing.T) []goldenRound {
		n, k := 6, 4
		tr := trace.ControlledCluster(n, 1, 40, 6)
		strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: mat.PaddedRows(480, k) / k, Granularity: 60}
		ar1 := &predict.AR1{}
		if err := ar1.Fit(trace.ControlledCluster(n, 1, 100, 7).Speeds); err != nil {
			t.Fatal(err)
		}
		c, _, x, _ := buildCluster(t, n, k, 480, tr, strat, ar1)
		return runCodedGolden(t, c, x, 10)
	}},
	{"coded equal speeds", func(t *testing.T) []goldenRound {
		n, k := 6, 4
		tr := &trace.Trace{Speeds: make([][]float64, n)}
		for w := range tr.Speeds {
			tr.Speeds[w] = []float64{1, 1}
		}
		blockRows := mat.PaddedRows(60, k) / k
		cm, _, x, _ := buildCluster(t, n, k, 60, tr, &sched.ConventionalMDS{N: n, K: k, BlockRows: blockRows}, nil)
		cs, _, _, _ := buildCluster(t, n, k, 60, tr, &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 30}, nil)
		return append(runCodedGolden(t, cm, x, 2), runCodedGolden(t, cs, x, 2)...)
	}},
	{"poly oracle stragglers", func(t *testing.T) []goldenRound {
		pc, d := goldenPolyCluster(t, trace.ControlledCluster(12, 2, 20, 39), nil)
		var out []goldenRound
		for iter := 0; iter < 3; iter++ {
			r, err := pc.RunIteration(iter, d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenOf(&r.Round))
		}
		return out
	}},
	{"poly mispredicted", func(t *testing.T) []goldenRound {
		tr := trace.ControlledCluster(12, 0, 10, 302)
		tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 40})
		pc, d := goldenPolyCluster(t, tr, constantForecaster{1})
		var out []goldenRound
		for iter := 0; iter < 2; iter++ {
			r, err := pc.RunIteration(iter, d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenOf(&r.Round))
		}
		return out
	}},
}

func TestRoundAccountingGolden(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run(t)
			want := goldenWant[sc.name]
			if len(got) != len(want) {
				t.Fatalf("%d rounds, want %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.latency != w.latency || !slices.Equal(g.computed, w.computed) || !slices.Equal(g.used, w.used) ||
					g.reassigned != w.reassigned || g.mispredicted != w.mispredicted ||
					!slices.Equal(g.timedOut, w.timedOut) || g.bytes != w.bytes {
					t.Errorf("round %d:\n got %+v\nwant %+v", i, g, w)
				}
			}
		})
	}
}

// goldenWant holds the accounting each scenario produced before
// CodedCluster and PolyCluster shared one round engine. The one change is
// helper traffic: each helper's assignment now costs 64 bytes and its
// reply is counted once, so a mispredicted MDS round moves 8 bytes less
// per reassigned row (its reply had been counted twice) and a
// mispredicted polynomial round 64 bytes more per helper (its assignment
// had not been counted); the expressions below show those deltas. A
// polynomial round also reports its timed-out workers now that it shares
// Round's fields.
var goldenWant = map[string][]goldenRound{
	"coded oracle stragglers": {
		{0.00978310277739863, []int{2, 2, 13, 15, 14, 14}, []int{2, 2, 13, 15, 14, 14}, 0, false, nil, 5088},
		{0.009900035827639693, []int{2, 2, 13, 15, 14, 14}, []int{2, 2, 13, 15, 14, 14}, 0, false, nil, 5088},
		{0.009887844469688437, []int{2, 2, 13, 15, 14, 14}, []int{2, 2, 13, 15, 14, 14}, 0, false, nil, 5088},
		{0.009919371175397299, []int{2, 2, 13, 15, 14, 14}, []int{2, 2, 13, 15, 14, 14}, 0, false, nil, 5088},
	},
	"coded mispredicted": {
		{0.008853824799167149, []int{6, 7, 7, 8, 8}, []int{0, 7, 7, 8, 8}, 6, true, []int{0}, 4384 - 8*6},
		{0.008840551142823028, []int{6, 7, 7, 8, 8}, []int{0, 7, 7, 8, 8}, 6, true, []int{0}, 4384 - 8*6},
	},
	"coded AR(1) history": {
		{0.06613618330237096, []int{80, 100, 99, 80, 100, 101}, []int{0, 100, 99, 80, 100, 101}, 80, true, []int{0}, 9344 - 8*80},
		{0.054697937566586696, []int{14, 96, 88, 88, 98, 96}, []int{14, 96, 88, 88, 98, 96}, 0, false, nil, 8448},
		{0.05446299408052696, []int{14, 96, 88, 88, 96, 98}, []int{14, 96, 88, 88, 96, 98}, 0, false, nil, 8448},
		{0.05443402192918997, []int{14, 96, 88, 88, 96, 98}, []int{14, 96, 88, 88, 96, 98}, 0, false, nil, 8448},
		{0.055213024838128705, []int{14, 96, 88, 88, 96, 98}, []int{14, 96, 88, 88, 96, 98}, 0, false, nil, 8448},
		{0.0551662320898761, []int{14, 94, 90, 88, 96, 98}, []int{14, 94, 90, 88, 96, 98}, 0, false, nil, 8448},
		{0.05500469605669813, []int{14, 96, 88, 88, 96, 98}, []int{14, 96, 88, 88, 96, 98}, 0, false, nil, 8448},
		{0.054695703318063886, []int{14, 96, 88, 88, 96, 98}, []int{14, 96, 88, 88, 96, 98}, 0, false, nil, 8448},
		{0.054952943021433706, []int{14, 96, 90, 88, 96, 96}, []int{14, 96, 90, 88, 96, 96}, 0, false, nil, 8448},
		{0.05397077710904235, []int{14, 94, 90, 88, 96, 98}, []int{14, 94, 90, 88, 96, 98}, 0, false, nil, 8448},
	},
	"coded equal speeds": {
		{0.009200710400000001, []int{15, 15, 15, 15, 15, 15}, []int{15, 15, 15, 15, 0, 0}, 0, false, nil, 5088},
		{0.009200710400000001, []int{15, 15, 15, 15, 15, 15}, []int{15, 15, 15, 15, 0, 0}, 0, false, nil, 5088},
		{0.006800678399999999, []int{10, 10, 10, 10, 10, 10}, []int{10, 10, 10, 10, 10, 10}, 0, false, nil, 5088},
		{0.006800678399999999, []int{10, 10, 10, 10, 10, 10}, []int{10, 10, 10, 10, 10, 10}, 0, false, nil, 5088},
	},
	"poly oracle stragglers": {
		{0.03147149257966899, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, 0, false, nil, 12960},
		{0.031460652508141715, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, 0, false, nil, 12960},
		{0.03166356820225675, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, []int{1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8}, 0, false, nil, 12960},
	},
	"poly mispredicted": {
		{0.03532670838285605, []int{8, 9, 9, 9, 9, 8, 8, 7, 8, 8, 8, 7}, []int{0, 9, 9, 9, 9, 8, 8, 7, 8, 8, 8, 7}, 8, true, []int{0}, 12960 + 64*8},
		{0.03537112952056653, []int{8, 9, 9, 9, 9, 8, 8, 7, 8, 8, 8, 7}, []int{0, 9, 9, 9, 9, 8, 8, 7, 8, 8, 8, 7}, 8, true, []int{0}, 12960 + 64*8},
	},
}
