package s2c2_test

// The benchmark harness regenerates every evaluation artifact of the
// paper (one Benchmark per table/figure; see the README's Benchmarks section) and measures
// the throughput-critical kernels of the stack. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benches report the experiment's tables through -v logs on the
// first iteration; cmd/s2c2-exp prints them directly.

import (
	"math/rand"
	"testing"

	s2c2 "github.com/coded-computing/s2c2"
	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/experiments"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// ---- Paper figures -----------------------------------------------------

func benchFigure(b *testing.B, id string) {
	cfg := experiments.Config{Scale: 1, Iterations: 8, Seed: 42}
	run := experiments.Registry[id]
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.Render())
			}
		}
	}
}

func BenchmarkPredictorTraining(b *testing.B)       { benchFigure(b, "predict") }
func BenchmarkFig1_MotivationLR(b *testing.B)       { benchFigure(b, "fig1") }
func BenchmarkFig2_SpeedTraces(b *testing.B)        { benchFigure(b, "fig2") }
func BenchmarkFig3_StorageOverhead(b *testing.B)    { benchFigure(b, "fig3") }
func BenchmarkFig6_LogisticRegression(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7_PageRank(b *testing.B)           { benchFigure(b, "fig7") }
func BenchmarkFig8_CloudLowMispred(b *testing.B)    { benchFigure(b, "fig8") }
func BenchmarkFig9_WasteLowMispred(b *testing.B)    { benchFigure(b, "fig9") }
func BenchmarkFig10_CloudHighMispred(b *testing.B)  { benchFigure(b, "fig10") }
func BenchmarkFig11_WasteHighMispred(b *testing.B)  { benchFigure(b, "fig11") }
func BenchmarkFig12_PolynomialS2C2(b *testing.B)    { benchFigure(b, "fig12") }
func BenchmarkFig13_Scale50(b *testing.B)           { benchFigure(b, "fig13") }

// ---- Ablations (internal/experiments/ablations.go) ----------------------

func BenchmarkAblateTimeout(b *testing.B)     { benchFigure(b, "ablate-timeout") }
func BenchmarkAblateMultiCode(b *testing.B)   { benchFigure(b, "ablate-multicode") }
func BenchmarkTailLatency(b *testing.B)       { benchFigure(b, "tail") }
func BenchmarkFig6SVM(b *testing.B)           { benchFigure(b, "fig6-svm") }
func BenchmarkFig7GraphFilter(b *testing.B)   { benchFigure(b, "fig7-filter") }
func BenchmarkAblateGranularity(b *testing.B) { benchFigure(b, "ablate-gran") }
func BenchmarkAblatePredictor(b *testing.B)   { benchFigure(b, "ablate-pred") }
func BenchmarkAblateLayout(b *testing.B)      { benchFigure(b, "ablate-layout") }

// ---- Kernel micro-benchmarks ---------------------------------------------

func BenchmarkMatVec1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.Rand(1024, 1024, rng)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, 1024)
	b.SetBytes(8 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatVecInto(a, x, y)
	}
}

func BenchmarkParallelMatVec1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.Rand(1024, 1024, rng)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, 1024)
	b.SetBytes(8 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.ParallelMatVecInto(a, x, y, 0)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := mat.Rand(256, 256, rng)
	y := mat.Rand(256, 256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMul(x, y)
	}
}

func BenchmarkMatMul1024(b *testing.B) {
	// The acceptance benchmark for the kernel refactor: the cache-blocked
	// packed kernel vs the seed's naive ikj loop (see internal/kernel's
	// BenchmarkMatMulNaive1024 for the baseline).
	rng := rand.New(rand.NewSource(2))
	x := mat.Rand(1024, 1024, rng)
	y := mat.Rand(1024, 1024, rng)
	c := mat.New(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulInto(x, y, c)
	}
}

func BenchmarkMDSDecodeWorkspace(b *testing.B) {
	// DecodeMatVecInto with a reused workspace: the steady-state decode of
	// an iterative job (0 allocs/op; compare BenchmarkMDSDecodeParityHeavy).
	rng := rand.New(rand.NewSource(5))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDSEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := mat.Rand(2000, 200, rng)
	code, _ := coding.NewMDSCode(12, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Encode(a)
	}
}

func BenchmarkMDSDecodeSystematicHeavy(b *testing.B) {
	// Decode dominated by systematic partitions — the common S2C2 case.
	rng := rand.New(rand.NewSource(4))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for w := 0; w < 10; w++ {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDSDecodeParityHeavy(b *testing.B) {
	// Worst case: the two slowest systematic workers replaced by parity.
	rng := rand.New(rand.NewSource(5))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGFMDSDecodeExact(b *testing.B) {
	// The exact-field backend (float-vs-GF(p) ablation; see the README's
	// "Exact distributed rounds over GF(2³¹−1)").
	rng := rand.New(rand.NewSource(6))
	rows, cols := 2000, 50
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	code, _ := coding.NewGFMDSCode(12, 10)
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]gf.Elem, cols)
	for i := range x {
		x[i] = gf.New(rng.Uint64())
	}
	var partials []*coding.GFPartial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		p, err := enc.WorkerMatVec(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}})
		if err != nil {
			b.Fatal(err)
		}
		partials = append(partials, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

// s2c2ServingPlan is the equal-speed GeneralS2C2 plan of the serving
// shape: a (4,3) code over 2048 rows, so each of the four workers
// computes a speed-sized share of every chunk and the decode walks many
// short runs of rows, each covered by a different set of three workers.
func s2c2ServingPlan(b *testing.B, blockRows int) *sched.Plan {
	g := &sched.GeneralS2C2{N: 4, K: 3, BlockRows: blockRows}
	plan, err := g.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func BenchmarkMDSDecodeS2C2Batch(b *testing.B) {
	// The float64 tenant of the serving benchmark: width-4 partials under
	// S2C2 coverage, decoded with a reused workspace (0 allocs/op).
	const rows, cols, width = 2048, 256, 4
	rng := rand.New(rand.NewSource(10))
	code, _ := coding.NewMDSCode(4, 3)
	enc := code.Encode(mat.Rand(rows, cols, rng))
	xs := make([]float64, width*cols)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	plan := s2c2ServingPlan(b, enc.BlockRows)
	var partials []*coding.Partial
	for w, ranges := range plan.Assignments {
		partials = append(partials, enc.WorkerComputeBatchInto(w, xs, width, ranges, nil))
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, rows*width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGFMDSDecodeS2C2(b *testing.B) {
	// The exact tenant of the serving benchmark: width-1 GF partials under
	// S2C2 coverage, decoded with a reused workspace (0 allocs/op).
	const rows, cols = 2048, 256
	rng := rand.New(rand.NewSource(11))
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	code, _ := coding.NewGFMDSCode(4, 3)
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]gf.Elem, cols)
	for i := range x {
		x[i] = gf.New(rng.Uint64())
	}
	plan := s2c2ServingPlan(b, enc.BlockRows)
	var partials []*coding.GFPartial
	for w, ranges := range plan.Assignments {
		p, err := enc.WorkerMatVec(w, x, ranges)
		if err != nil {
			b.Fatal(err)
		}
		partials = append(partials, p)
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyEncodeHessian(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := mat.Rand(300, 120, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.EncodeHessian(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyDecodeHessian(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := mat.Rand(300, 120, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	enc, _ := code.EncodeHessian(a)
	d := make([]float64, 300)
	for i := range d {
		d[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for w := 0; w < 9; w++ {
		partials = append(partials, enc.WorkerCompute(w, d, []coding.Range{{Lo: 0, Hi: enc.BlockColsA}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Decode(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLagrangeQuadratic(b *testing.B) {
	// Encode + degree-2 compute + decode over GF(2^31-1), 12 workers.
	rng := rand.New(rand.NewSource(15))
	code, _ := coding.NewLagrangeCode(12, 5)
	blocks := make([][]gf.Elem, 5)
	for j := range blocks {
		blk := make([]gf.Elem, 4096)
		for e := range blk {
			blk[e] = gf.New(rng.Uint64())
		}
		blocks[j] = blk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares, err := code.Encode(blocks)
		if err != nil {
			b.Fatal(err)
		}
		results := map[int][]gf.Elem{}
		for w := 0; w < code.RecoveryThreshold(2); w++ {
			out := make([]gf.Elem, len(shares[w]))
			for e, v := range shares[w] {
				out[e] = gf.Add(gf.Mul(v, v), v)
			}
			results[w] = out
		}
		if _, err := code.Decode(results, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralS2C2Plan(b *testing.B) {
	speeds := make([]float64, 50)
	rng := rand.New(rand.NewSource(9))
	for i := range speeds {
		speeds[i] = 0.5 + rng.Float64()
	}
	g := &sched.GeneralS2C2{N: 50, K: 40, BlockRows: 4000, Granularity: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Plan(speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSTMTrainEpoch(b *testing.B) {
	tr := trace.CloudStable(8, 200, 10)
	cfg := predict.DefaultLSTMConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := predict.NewLSTM(cfg)
		if err := m.Fit(tr.Speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSTMPredict(b *testing.B) {
	tr := trace.CloudStable(1, 200, 11)
	cfg := predict.DefaultLSTMConfig()
	cfg.Epochs = 5
	m := predict.NewLSTM(cfg)
	if err := m.Fit(tr.Speeds); err != nil {
		b.Fatal(err)
	}
	hist := tr.Speeds[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(hist)
	}
}

func BenchmarkEndToEndIterationS2C2(b *testing.B) {
	// One full simulated S2C2 round including numeric encode-free compute
	// and decode on a (10,7) cluster.
	data := s2c2.NewClassificationDataset(1000, 100, 12)
	code, _ := s2c2.NewMDSCode(10, 7)
	enc := code.Encode(data.X)
	tr := s2c2.ControlledCluster(10, 1, 50, 12)
	cluster := &s2c2.CodedCluster{
		Enc:      enc,
		Strategy: &s2c2.GeneralS2C2{N: 10, K: 7, BlockRows: enc.BlockRows},
		Trace:    tr,
		Comm:     s2c2.DefaultComm(),
		Timeout:  s2c2.DefaultTimeout(),
		Numeric:  true,
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = 0.01 * float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunIteration(i, x); err != nil {
			b.Fatal(err)
		}
	}
}
