package sim

import (
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

func TestUncodedReplicationNoStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := mat.Rand(120, 6, rng)
	x := randTestVec(6, rng)
	want := mat.MatVec(a, x)
	tr := trace.ControlledCluster(12, 0, 20, 31)
	u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm(), Numeric: true}
	r, err := u.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(r.Result, want, 1e-9) {
		t.Fatal("uncoded result mismatch")
	}
	if r.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
	if r.DataMoves != 0 {
		t.Fatalf("no stragglers should need no data moves, got %d", r.DataMoves)
	}
}

func TestUncodedReplicationSpeculatesOnStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := mat.Rand(120, 6, rng)
	x := randTestVec(6, rng)
	trNone := trace.ControlledCluster(12, 0, 20, 33)
	trStrag := trace.ControlledCluster(12, 2, 20, 33)
	u0 := &UncodedReplication{A: a, Trace: trNone, Comm: DefaultComm()}
	u2 := &UncodedReplication{A: a, Trace: trStrag, Comm: DefaultComm()}
	r0, err := u0.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := u2.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Speculative == 0 {
		t.Fatal("stragglers must trigger speculation")
	}
	if r2.Latency <= r0.Latency {
		t.Fatal("straggled round should still be slower than clean round")
	}
	// Speculation must beat just waiting for the 5x-slow straggler.
	noSpec := 0.0
	for w := 0; w < 12; w++ {
		ft := computeElems(10*200, trStrag.At(w, 0))
		if ft > noSpec {
			noSpec = ft
		}
	}
	if r2.Latency >= noSpec {
		t.Fatalf("speculation (%.4f) should beat waiting for the straggler (%.4f)", r2.Latency, noSpec)
	}
}

func TestUncodedReplicationCollapsesBeyondReplicationFactor(t *testing.T) {
	// The Figure 1/6 crossover: with r=3 replication and >= 3 stragglers,
	// replicas land on straggling nodes and recovery needs data movement,
	// so latency degrades sharply vs the clean case.
	rng := rand.New(rand.NewSource(34))
	a := mat.Rand(240, 6, rng)
	x := randTestVec(6, rng)
	lat := map[int]float64{}
	for _, s := range []int{0, 3, 6} {
		tr := trace.ControlledCluster(12, s, 20, 35)
		u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm()}
		r, err := u.RunIteration(0, x)
		if err != nil {
			t.Fatal(err)
		}
		lat[s] = r.Latency
	}
	if lat[3] <= lat[0] || lat[6] <= lat[3] {
		t.Fatalf("latency should grow with stragglers: %v", lat)
	}
}

func TestOverDecompositionBalancedAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := mat.Rand(240, 5, rng)
	x := randTestVec(5, rng)
	want := mat.MatVec(a, x)
	tr := trace.CloudStable(10, 30, 36)
	o := &OverDecomposition{A: a, Trace: tr, Comm: DefaultComm(), Numeric: true}
	var first, last *OverDecompRound
	for iter := 0; iter < 10; iter++ {
		r, err := o.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(r.Result, want, 1e-9) {
			t.Fatalf("iteration %d: over-decomposition result mismatch", iter)
		}
		if iter == 0 {
			first = r
		}
		last = r
	}
	// After the initial rebalancing, stable speeds need few migrations.
	if last.Migrations > first.Migrations {
		t.Fatalf("migrations should subside: first %d last %d", first.Migrations, last.Migrations)
	}
}

func TestOverDecompositionStorageGrowsUnderVolatility(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := mat.Rand(400, 4, rng)
	x := randTestVec(4, rng)
	tr := trace.CloudVolatile(10, 100, 37)
	o := &OverDecomposition{A: a, Trace: tr, Comm: DefaultComm()}
	if _, err := o.RunIteration(0, x); err != nil {
		t.Fatal(err)
	}
	start := meanFrac(o.StorageFractions())
	for iter := 1; iter < 60; iter++ {
		if _, err := o.RunIteration(iter, x); err != nil {
			t.Fatal(err)
		}
	}
	end := meanFrac(o.StorageFractions())
	// The Figure 3 effect: avoiding data movement in an uncoded scheme
	// requires accumulating an ever-growing share of the dataset.
	if end <= start {
		t.Fatalf("storage should grow under volatile speeds: %.3f -> %.3f", start, end)
	}
	if end > 1.0 {
		t.Fatalf("storage fraction %v cannot exceed 1", end)
	}
}

func meanFrac(fs []float64) float64 {
	s := 0.0
	for _, f := range fs {
		s += f
	}
	return s / float64(len(fs))
}

func TestPolyClusterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	want := mat.ATDiagA(a, d)

	code, err := coding.NewPolyCode(12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.ControlledCluster(12, 1, 20, 38)
	pc := &PolyCluster{
		Enc:      enc,
		Strategy: &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Trace:    tr,
		Comm:     DefaultComm(),
		Timeout:  DefaultTimeout(),
		Numeric:  true,
	}
	r, err := pc.RunIteration(0, d)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Result.ApproxEqual(want, 1e-6) {
		t.Fatal("polynomial S2C2 decode mismatch")
	}
}

func TestPolyS2C2BeatsConventionalPoly(t *testing.T) {
	// Figure 12's shape: with no stragglers and oracle speeds, S2C2 on
	// polynomial codes beats conventional polynomial coding (which waits
	// for the fastest ab full partitions and wastes the rest).
	rng := rand.New(rand.NewSource(39))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	enc, _ := code.EncodeHessian(a)
	tr := trace.ControlledCluster(12, 0, 20, 39)

	conv := &PolyCluster{Enc: enc, Strategy: &sched.ConventionalMDS{N: 12, K: 9, BlockRows: enc.BlockColsA},
		Trace: tr, Comm: DefaultComm(), Timeout: DefaultTimeout()}
	s2c2 := &PolyCluster{Enc: enc, Strategy: &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Trace: tr.Clone(), Comm: DefaultComm(), Timeout: DefaultTimeout()}

	aggC, aggS := &Aggregate{}, &Aggregate{}
	for iter := 0; iter < 10; iter++ {
		rc, err := conv.RunIteration(iter, d)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s2c2.RunIteration(iter, d)
		if err != nil {
			t.Fatal(err)
		}
		aggC.AddRound(&rc.Round)
		aggS.AddRound(&rs.Round)
	}
	if aggS.MeanLatency() >= aggC.MeanLatency() {
		t.Fatalf("poly S2C2 (%.4f) should beat conventional (%.4f)",
			aggS.MeanLatency(), aggC.MeanLatency())
	}
}

func randTestVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}
