package sim

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// mispredictedCoded is TestCodedClusterMispredictionRecovery's cluster: a
// forecaster that believes every worker equally fast while worker 0 runs
// 50× slower.
func mispredictedCoded(t *testing.T) (*CodedCluster, []float64, []float64) {
	t.Helper()
	n, k := 5, 3
	tr := trace.ControlledCluster(n, 0, 30, 5)
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 50})
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: mat.PaddedRows(30, k) / k, Granularity: 30}
	c, _, x, want := buildCluster(t, n, k, 30, tr, strat, constantForecaster{1})
	return c, x, want
}

// mispredictedPoly is the polynomial counterpart: worker 0 runs 40× slower
// than the constant forecast.
func mispredictedPoly(t *testing.T) (*PolyCluster, []float64, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(301))
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
	tr := trace.ControlledCluster(12, 0, 10, 302)
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 40})
	return &PolyCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Forecaster: constantForecaster{1},
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}, d, mat.ATDiagA(a, d)
}

// checkHelperTraffic asserts a mispredicted round's traffic: the input
// broadcast to every worker, 64 bytes of assignment per helper given
// reassigned rows, and each used reply once.
func checkHelperTraffic(t *testing.T, r *Round, s sched.Strategy, inputBytes float64, rowBytes int) {
	t.Helper()
	if !r.Mispredicted {
		t.Fatal("expected the timeout to fire")
	}
	n := len(r.ComputedRows)
	plan, err := s.Plan(slices.Repeat([]float64{1}, n))
	if err != nil {
		t.Fatal(err)
	}
	helpers, reassigned := 0, 0
	want := inputBytes * float64(n)
	for w := 0; w < n; w++ {
		if extra := r.ComputedRows[w] - plan.RowsFor(w); extra > 0 {
			helpers++
			reassigned += extra
		}
		want += float64(r.UsedRows[w] * rowBytes)
	}
	want += 64 * float64(helpers)
	if helpers == 0 || reassigned != r.ReassignedRows {
		t.Fatalf("%d helpers re-executed %d rows, round reports %d", helpers, reassigned, r.ReassignedRows)
	}
	if r.BytesMoved != want {
		t.Fatalf("BytesMoved = %v, want %v", r.BytesMoved, want)
	}
}

func TestMispredictedRoundBytesMoved(t *testing.T) {
	t.Run("coded", func(t *testing.T) {
		c, x, _ := mispredictedCoded(t)
		r, err := c.RunIteration(0, x)
		if err != nil {
			t.Fatal(err)
		}
		checkHelperTraffic(t, r, c.Strategy, float64(8*len(x)), 8)
	})
	t.Run("poly", func(t *testing.T) {
		c, d, _ := mispredictedPoly(t)
		r, err := c.RunIteration(0, d)
		if err != nil {
			t.Fatal(err)
		}
		checkHelperTraffic(t, &r.Round, c.Strategy, float64(8*len(d)), 8*c.Enc.BlockColsB)
	})
}

// checkDecodeCoverage asserts that the decode consumed exactly the rows
// the round reports: each worker's partials cover ComputedRows[w] rows,
// and a timed-out worker contributes none.
func checkDecodeCoverage(t *testing.T, r *Round, partials []*coding.Partial) {
	t.Helper()
	if !r.Mispredicted || r.ReassignedRows == 0 {
		t.Fatalf("expected timeout recovery, got mispredicted=%v reassigned=%d", r.Mispredicted, r.ReassignedRows)
	}
	got := make([]int, len(r.ComputedRows))
	for _, p := range partials {
		got[p.Worker] += coding.TotalRows(p.Ranges)
	}
	want := slices.Clone(r.ComputedRows)
	for _, w := range r.TimedOut {
		want[w] = 0
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decode computed rows %v, round reports %v (timed out %v)", got, r.ComputedRows, r.TimedOut)
	}
}

func TestNumericDecodeUsesReportedCoverage(t *testing.T) {
	t.Run("coded", func(t *testing.T) {
		c, x, want := mispredictedCoded(t)
		r, err := c.RunIteration(0, x)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeCoverage(t, r, c.eng.partials)
		if !mat.VecApproxEqual(r.Result, want, 1e-6) {
			t.Fatal("decode after recovery mismatch")
		}
	})
	t.Run("poly", func(t *testing.T) {
		c, d, want := mispredictedPoly(t)
		r, err := c.RunIteration(0, d)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeCoverage(t, &r.Round, c.eng.partials)
		if !r.Result.ApproxEqual(want, 1e-6) {
			t.Fatal("poly decode after recovery mismatch")
		}
	})
}

func TestSpeedHistory(t *testing.T) {
	tr := &trace.Trace{Speeds: [][]float64{{2}, {3}}}
	var h speedHistory
	dst := make([]float64, 2)
	if got := h.predictInto(dst, nil, tr, 0); !slices.Equal(got, []float64{2, 3}) {
		t.Fatalf("oracle = %v, want the trace speeds", got)
	}
	if got := h.predictInto(dst, constantForecaster{0.5}, tr, 0); !slices.Equal(got, []float64{1, 1}) {
		t.Fatalf("bootstrap = %v, want all 1", got)
	}
	h.record([]float64{0.7, 0}) // worker 1 idle before any observation
	h.record([]float64{0, 0.4}) // worker 0 idle: carries 0.7
	if !slices.Equal(h[0], []float64{0.7, 0.7}) || !slices.Equal(h[1], []float64{1, 0.4}) {
		t.Fatalf("history = %v", h)
	}
	if got := h.predictInto(dst, constantForecaster{0.5}, tr, 0); !slices.Equal(got, []float64{0.5, 0.5}) {
		t.Fatalf("forecast = %v, want 0.5", got)
	}
	if got := h.predictInto(dst, constantForecaster{-1}, tr, 0); !slices.Equal(got, []float64{0.7, 0.4}) {
		t.Fatalf("non-positive forecast = %v, want the last observations", got)
	}
}
