package rpc

// golden_test.go is the round contract every refactor of the rpc and wire
// layers must keep: for each of {float64, GF(2³¹−1)} × {width 1, width 4}
// × {the master's default job, an OpenJob job}, and for a worker killed
// mid-round, a fixed scenario must reproduce the same decoded output bits,
// the same RoundStats.AssignedRows, and the same recovery counters.
//
// GF decodes are exact, so their outputs are pinned as FNV-64a digests.
// Float64 bits depend on the kernel backend (FMA or not), so float64
// outputs are pinned against a local decode of locally computed partials
// over the very coverage the round gathered: the runtime must move every
// bit unchanged.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

const (
	goldenN, goldenK   = 4, 3
	goldenRows         = 48
	goldenCols         = 8
	goldenBlockRows    = goldenRows / goldenK
	goldenTimeoutFrac  = 1e6 // grace never fires: coverage is plan-determined
	goldenStallTimeout = 20 * time.Second
)

// goldenPlanRows is AssignedRows of the equal-speed S2C2 plan: every
// block row on exactly k of the n workers.
var goldenPlanRows = []int{12, 12, 12, 12}

// goldenData is the scenario's deterministic data set.
type goldenData struct {
	a     *mat.Dense
	enc   *coding.EncodedMatrix
	gfRaw []gf.Elem
	gfEnc *coding.GFEncodedMatrix
	xs    []float64 // 4 lanes of goldenCols
	gfXs  []gf.Elem
}

func newGoldenData(t *testing.T) *goldenData {
	t.Helper()
	rng := rand.New(rand.NewSource(20261017))
	d := &goldenData{a: mat.Rand(goldenRows, goldenCols, rng)}
	code, err := coding.NewMDSCode(goldenN, goldenK)
	if err != nil {
		t.Fatal(err)
	}
	d.enc = code.Encode(d.a)
	d.gfRaw = randElems(rng, goldenRows*goldenCols)
	gcode, err := coding.NewGFMDSCode(goldenN, goldenK)
	if err != nil {
		t.Fatal(err)
	}
	if d.gfEnc, err = gcode.Encode(goldenRows, goldenCols, d.gfRaw); err != nil {
		t.Fatal(err)
	}
	d.xs = make([]float64, 4*goldenCols)
	for i := range d.xs {
		d.xs[i] = rng.NormFloat64()
	}
	d.gfXs = randElems(rng, 4*goldenCols)
	return d
}

func goldenPlan(t *testing.T) *sched.Plan {
	t.Helper()
	strat := &sched.GeneralS2C2{N: goldenN, K: goldenK, BlockRows: goldenBlockRows, Granularity: goldenBlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// gfDigest is the FNV-64a digest of a field-element vector's bits.
func gfDigest(v []gf.Elem) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, e := range v {
		binary.LittleEndian.PutUint32(b[:], uint32(e))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkFloatGolden decodes the round's partials and requires the output
// to equal, bit for bit, the decode of locally computed partials over the
// same (worker, ranges) coverage; it also sanity-checks A·x per lane.
func checkFloatGolden(t *testing.T, d *goldenData, partials []*coding.Partial, w int) {
	t.Helper()
	xs := d.xs[:w*goldenCols]
	got, err := d.enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]*coding.Partial, len(partials))
	for i, p := range partials {
		if p.RowWidth != w {
			t.Fatalf("partial %d RowWidth %d, want %d", i, p.RowWidth, w)
		}
		local[i] = d.enc.WorkerComputeBatchInto(p.Worker, xs, w, p.Ranges, nil)
		if w == 1 {
			local[i] = d.enc.WorkerCompute(p.Worker, xs, p.Ranges)
		}
	}
	want, err := d.enc.DecodeMatVec(local)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: bits %#x, local reference %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	lane := make([]float64, goldenRows)
	for l := 0; l < w; l++ {
		for r := range lane {
			lane[r] = got[r*w+l]
		}
		if !mat.VecApproxEqual(lane, mat.MatVec(d.a, xs[l*goldenCols:(l+1)*goldenCols]), 1e-8) {
			t.Fatalf("lane %d does not match A·x", l)
		}
	}
}

// checkGFGolden decodes the round's exact partials and requires the
// pinned digest.
func checkGFGolden(t *testing.T, d *goldenData, partials []*coding.GFPartial, w int, wantDigest uint64) {
	t.Helper()
	got, err := d.gfEnc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < w; l++ {
		want := gfGroundTruth(goldenRows, goldenCols, d.gfRaw, d.gfXs[l*goldenCols:(l+1)*goldenCols])
		for r := range want {
			if got[r*w+l] != want[r] {
				t.Fatalf("lane %d row %d: decode %d, A·x %d", l, r, got[r*w+l], want[r])
			}
		}
	}
	if dg := gfDigest(got); dg != wantDigest {
		t.Fatalf("decoded digest %#x, want %#x", dg, wantDigest)
	}
}

// checkGoldenStats pins AssignedRows and the round's recovery counters.
func checkGoldenStats(t *testing.T, st *RoundStats, assigned, dead []int, recovered int) {
	t.Helper()
	if !slices.Equal(st.AssignedRows, assigned) {
		t.Fatalf("AssignedRows = %v, want %v", st.AssignedRows, assigned)
	}
	if st.Reassigned != 0 || len(st.TimedOut) != 0 {
		t.Fatalf("Reassigned = %d, TimedOut = %v; want none", st.Reassigned, st.TimedOut)
	}
	r := st.Recovery
	if !slices.Equal(r.DeadWorkers, dead) || r.RecoveredRows != recovered ||
		r.Retries != 0 || r.ReStreams != 0 || r.Evictions != 0 || r.ReplacementAdmits != 0 {
		t.Fatalf("Recovery = %+v, want DeadWorkers %v, RecoveredRows %d, no other activity", r, dead, recovered)
	}
}

// checkNoRecoveryTotals requires the master's lifetime counters to show
// no distribute-path recovery: the scenarios lose workers only mid-round.
func checkNoRecoveryTotals(t *testing.T, m *Master) {
	t.Helper()
	tot := m.RecoveryTotals()
	if tot.Retries != 0 || tot.ReStreams != 0 || tot.Evictions != 0 || tot.ReplacementAdmits != 0 ||
		tot.AcceptFailures != 0 || tot.RecoveredRows != 0 || len(tot.DeadWorkers) != 0 {
		t.Fatalf("RecoveryTotals = %+v, want zero", tot)
	}
}

// goldenGFDigests are the decoded GF outputs of the healthy scenarios,
// keyed by width (the default and tagged jobs must agree).
var goldenGFDigests = map[int]uint64{
	1: 0x8dbd0ea4ecf9a4ef,
	4: 0x1e84ad345032c6cc,
}

// TestGoldenRoundContract runs the eight healthy scenarios on one cluster.
func TestGoldenRoundContract(t *testing.T) {
	d := newGoldenData(t)
	m := startTestCluster(t, goldenN, clusterConfig{
		master: MasterConfig{StallTimeout: goldenStallTimeout},
	})
	plan := goldenPlan(t)
	for _, tagged := range []bool{false, true} {
		j := &m.def
		name := "default"
		if tagged {
			j = m.OpenJob(JobConfig{})
			name = "job"
		}
		if err := j.DistributePartitions(0, d.enc); err != nil {
			t.Fatal(err)
		}
		if err := j.DistributeGFPartitions(1, d.gfEnc.Parts); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			t.Run(name+"/float64/w"+string(rune('0'+w)), func(t *testing.T) {
				var partials []*coding.Partial
				var st *RoundStats
				var err error
				if w == 1 {
					partials, st, err = j.RunRound(1, 0, d.xs[:goldenCols], plan, goldenK, goldenTimeoutFrac)
				} else {
					partials, st, err = j.RunRoundBatch(1, 0, d.xs, w, plan, goldenK, goldenTimeoutFrac)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkFloatGolden(t, d, partials, w)
				checkGoldenStats(t, st, goldenPlanRows, nil, 0)
			})
			t.Run(name+"/gf/w"+string(rune('0'+w)), func(t *testing.T) {
				var partials []*coding.GFPartial
				var st *RoundStats
				var err error
				if w == 1 {
					partials, st, err = j.RunGFRound(1, 1, d.gfXs[:goldenCols], plan, goldenK, goldenTimeoutFrac)
				} else {
					partials, st, err = j.RunGFRoundBatch(1, 1, d.gfXs, w, plan, goldenK, goldenTimeoutFrac)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkGFGolden(t, d, partials, w, goldenGFDigests[w])
				checkGoldenStats(t, st, goldenPlanRows, nil, 0)
			})
		}
	}
	checkNoRecoveryTotals(t, m)
}

// goldenKilledRows is AssignedRows after worker 1 dies as its work
// arrives: its 12 rows stay on its books and are re-covered by the three
// survivors, least-loaded first.
var goldenKilledRows = []int{16, 12, 16, 16}

// goldenKilledGFDigest is the decoded GF output of the killed-worker
// scenario (the same data and x as the healthy width-1 round).
const goldenKilledGFDigest uint64 = 0x8dbd0ea4ecf9a4ef

// TestGoldenRoundContractWorkerKilled kills worker 1 mid-round on each
// element type: the link drops as the round's work frame reaches it, the
// master folds its rows back into the plan, and the decode, the
// assignment and the recovery counters must match the pinned contract.
func TestGoldenRoundContractWorkerKilled(t *testing.T) {
	d := newGoldenData(t)
	plan := goldenPlan(t)
	for _, elem := range []string{"float64", "gf"} {
		t.Run(elem, func(t *testing.T) {
			// Chunks of one row: the partition start plus goldenBlockRows
			// chunks pass, then the link drops on the next frame (the work).
			m := startTestCluster(t, goldenN, clusterConfig{
				master: MasterConfig{ChunkRows: 1, ChunkWindow: 8, StallTimeout: goldenStallTimeout},
				faults: map[int]*workerFault{1: {dropAfterFrames: goldenBlockRows + 1}},
			})
			var st *RoundStats
			if elem == "float64" {
				if err := m.DistributePartitions(0, d.enc); err != nil {
					t.Fatal(err)
				}
				partials, s, err := m.RunRound(1, 0, d.xs[:goldenCols], plan, goldenK, goldenTimeoutFrac)
				if err != nil {
					t.Fatal(err)
				}
				checkFloatGolden(t, d, partials, 1)
				st = s
			} else {
				if err := m.DistributeGFPartitions(0, d.gfEnc.Parts); err != nil {
					t.Fatal(err)
				}
				partials, s, err := m.RunGFRound(1, 0, d.gfXs[:goldenCols], plan, goldenK, goldenTimeoutFrac)
				if err != nil {
					t.Fatal(err)
				}
				checkGFGolden(t, d, partials, 1, goldenKilledGFDigest)
				st = s
			}
			checkGoldenStats(t, st, goldenKilledRows, []int{1}, goldenPlanRows[1])
			checkNoRecoveryTotals(t, m)
		})
	}
}
