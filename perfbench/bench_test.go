package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{19, 99, 0},    // not even 10 samples above the median
		{20, 99, 50},   // 10 beyond p50
		{99, 99, 50},   // 9.9 beyond p90
		{100, 99, 90},  // 10 beyond p90
		{999, 99, 90},  // 9.99 beyond p99
		{1000, 99, 99}, // 10 beyond p99
		{1000, 90, 90}, // capped at the workload's own tail
		{100000, 99, 99},
		{100000, 99.9, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.p {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.iter", Parent: -1, Start: 0, End: 100},
		// Two concurrent children overlapping on [30,40), and one that
		// outlives its parent: together they cover [10,60) and [90,100).
		{Name: "rpc.round", Parent: 0, Start: 10, End: 40},
		{Name: "rpc.round", Parent: 0, Start: 30, End: 60},
		{Name: "coding.decode", Parent: 0, Start: 90, End: 120},
		// A grandchild is covered by its own parent, not the root.
		{Name: "sched.plan", Parent: 1, Start: 15, End: 20},
		// Set-up spans belong to no operation and are left out.
		{Name: "coding.encode", Op: -1, Parent: -1, Start: 0, End: 1000},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":  40,            // 100 − 50 − 10
		"rpc":    (30 - 5) + 30, // first round minus its child
		"coding": 30,            // the decode only
		"sched":  5,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestFailedFracCounting(t *testing.T) {
	if got := failedFrac(0, 0); got != 1 {
		t.Errorf("nothing attempted: failed_frac %g, want 1", got)
	}
	if got := failedFrac(8, 2); got != 0.25 {
		t.Errorf("failed_frac(8, 2) = %g, want 0.25", got)
	}
	fake := workload{name: "fake", run: func(runConfig) (*outcome, error) {
		o := &outcome{layer: map[string]float64{}, setup: []float64{1}, blocks: [][]float64{{1, 2, 3}}, rates: []float64{3}}
		o.attempted = 4
		o.fail("one wrong decode")
		return o, nil
	}}
	for _, trace := range []bool{false, true} {
		rec, err := runOne(fake, 1, 0.01, trace, "")
		if err != nil {
			t.Fatal(err)
		}
		wantAttempted, wantFailed := 4, 1
		if trace { // untraced and traced passes both count
			wantAttempted, wantFailed = 8, 2
		}
		r := rec.Result
		if r.Correct || r.Attempted != wantAttempted || r.Failed != wantFailed {
			t.Errorf("trace=%v: result %+v, want correct=false attempted=%d failed=%d", trace, r, wantAttempted, wantFailed)
		}
	}
}

func TestChecksCatchWrongDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols, w = 64, 16, 3
	a := mat.NewFromData(rows, cols, randFloats(rows*cols, rng))
	xs := randFloats(cols*w, rng)
	y := make([]float64, rows*w)
	for l := 0; l < w; l++ {
		col := mat.MatVec(a, xs[l*cols:(l+1)*cols])
		for i, v := range col {
			y[i*w+l] = v
		}
	}
	fc := newFloatCheck(a, rng)
	if !fc.ok(y, xs, w, rng) {
		t.Fatal("float check rejects a correct product")
	}
	y[17*w+2] += 1e-6
	if fc.ok(y, xs, w, rng) {
		t.Error("float check accepts an element off by 1e-6")
	}

	g := gf.NewMatrixFromData(rows, cols, randElems(rows*cols, rng))
	gx := randElems(cols, rng)
	gy := g.MulVec(gx)
	gc := newGFCheck(g, rng)
	if !gc.ok(gy, gx, 1, rng) {
		t.Fatal("GF check rejects a correct product")
	}
	gy[5] = gf.Add(gy[5], 1)
	if gc.ok(gy, gx, 1, rng) {
		t.Error("GF check accepts an element off by one")
	}
}

// TestSmoke runs every workload for about a second, untraced, and
// serve-mixed once traced, and checks that each reports every metric
// with no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			rec, err := runOne(w, 7, 1, false, "")
			if err != nil {
				t.Fatal(err)
			}
			r := rec.Result
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("result %+v", r)
			}
			for _, m := range endToEnd {
				if v, ok := r.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("metric %s = %+v", m.name, v)
				}
			}
		})
	}
	t.Run("serve-mixed traced", func(t *testing.T) {
		rec, err := runOne(workloadList[1], 7, 1, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := rec.Result
		if !r.Correct || len(r.Metrics) != len(perLayer) {
			t.Fatalf("result %+v", r)
		}
		for _, name := range []string{"rpc.round_ms", "coding.decode_ms", "wire.bytes_per_round", "kernel.gf_matvec_gbps"} {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s = %g, want > 0", name, r.Metrics[name].Value)
			}
		}
	})
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadList[i].name)
		}
	}
}
