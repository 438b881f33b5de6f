package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// serve-mixed: two tenants served concurrently over one full-speed pool.
// Tenant A runs exact GF(2³¹−1) single-x rounds, tenant B float64 rounds
// batched four wide, both with equal-speed S2C2 plans.
const (
	serveN, serveK       = 4, 3
	serveRows, serveCols = 2048, 256
	serveBatch           = 4
	serveTimeoutFrac     = 0.15
	// serveBlocks measured blocks each run on a fresh set-up: how one
	// cluster's goroutines and connections happen to share the two cores
	// moves a block's throughput by ±10%, so a run measures several.
	serveBlocks = 5
)

type serveTenant struct {
	job   *rpc.Job
	gfEnc *coding.GFEncodedMatrix
	enc   *coding.EncodedMatrix
	strat sched.Strategy
}

type serveSetup struct {
	c       *cluster
	tenants [2]*serveTenant
}

func setupServe(gfData *gf.Matrix, fData *mat.Dense, cfg runConfig) (*serveSetup, error) {
	c, err := startCluster(equalSpeeds(serveN), cfg.relay)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{c: c}
	gfCode, err := coding.NewGFMDSCode(serveN, serveK)
	if err != nil {
		c.close()
		return nil, err
	}
	fCode, err := coding.NewMDSCode(serveN, serveK)
	if err != nil {
		c.close()
		return nil, err
	}

	a := &serveTenant{job: c.m.OpenJob(rpc.JobConfig{})}
	sp := cfg.tr.begin("coding.encode", -1, -1)
	a.gfEnc, err = gfCode.Encode(serveRows, serveCols, gfData.Data())
	cfg.tr.end(sp)
	if err == nil {
		sp = cfg.tr.begin("rpc.distribute", -1, -1)
		err = a.job.DistributeGFPartitions(0, a.gfEnc.Parts)
		cfg.tr.end(sp)
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("tenant A: %w", err)
	}
	a.strat = &sched.GeneralS2C2{N: serveN, K: serveK, BlockRows: a.gfEnc.BlockRows}

	b := &serveTenant{job: c.m.OpenJob(rpc.JobConfig{})}
	sp = cfg.tr.begin("coding.encode", -1, -1)
	b.enc = fCode.Encode(fData)
	cfg.tr.end(sp)
	sp = cfg.tr.begin("rpc.distribute", -1, -1)
	err = b.job.DistributePartitions(0, b.enc)
	cfg.tr.end(sp)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("tenant B: %w", err)
	}
	b.strat = &sched.GeneralS2C2{N: serveN, K: serveK, BlockRows: b.enc.BlockRows}
	s.tenants = [2]*serveTenant{a, b}
	return s, nil
}

// tenantRun is one tenant's measured loop.
type tenantRun struct {
	lat       []float64
	attempted int
	failed    int
}

func runServe(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	gfData := gf.NewMatrixFromData(serveRows, serveCols, randElems(serveRows*serveCols, rng))
	fData := mat.NewFromData(serveRows, serveCols, randFloats(serveRows*serveCols, rng))
	gfChk := newGFCheck(gfData, rng)
	fChk := newFloatCheck(fData, rng)
	o := &outcome{
		layer: map[string]float64{},
		inputs: map[string]any{
			"n": serveN, "k": serveK, "tenants": 2, "clients": 2,
			"tenant_a": fmt.Sprintf("%dx%d GF(2^31-1), batch width 1", serveRows, serveCols),
			"tenant_b": fmt.Sprintf("%dx%d float64, batch width %d", serveRows, serveCols, serveBatch),
			"slowdown": 1, "plans": "equal-speed S2C2", "timeout_frac": serveTimeoutFrac, "data_seed": cfg.seed,
		},
	}
	// One warm-up round per tenant sizes the round and decode workspaces;
	// its rounds carry tags the measured rounds never reuse.
	measure := func(s *serveSetup, tagBase int, warm bool) (runs [2]*tenantRun, wall time.Duration) {
		start := time.Now()
		deadline := start.Add(cfg.deadline() / serveBlocks)
		var wg sync.WaitGroup
		for t := range runs {
			runs[t] = &tenantRun{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tenantLoop(s.tenants[t], t, gfChk, fChk, runs[t], tagBase, deadline, warm, cfg.seed, cfg.tr)
			}()
		}
		wg.Wait()
		return runs, time.Since(start)
	}
	var (
		bytes  int64
		heap0  float64
		nA, nB int
	)
	for b := 0; b < serveBlocks; b++ {
		t0 := time.Now()
		s, err := setupServe(gfData, fData, cfg)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if b == 0 {
			heap0 = heapInuseMB()
		}
		warm, _ := measure(s, 1<<30, true)
		bytes0 := s.c.relayed()
		runs, w := measure(s, 0, false)
		bytes += s.c.relayed() - bytes0
		o.rates = append(o.rates, float64(len(runs[0].lat)+len(runs[1].lat))/w.Seconds())
		for _, r := range append(warm[:], runs[:]...) {
			o.attempted += r.attempted
			o.failed += r.failed
		}
		o.blocks = append(o.blocks, append(runs[0].lat, runs[1].lat...))
		nA, nB = nA+len(runs[0].lat), nB+len(runs[1].lat)
		if b == serveBlocks-1 {
			o.layer["mem.heap_inuse_mb"] = heapInuseMB()
			o.layer["mem.heap_growth_mb"] = o.layer["mem.heap_inuse_mb"] - heap0
			if cfg.tr != nil {
				o.layer["kernel.gf_matvec_gbps"] = gfMatvecGBps(s.tenants[0].gfEnc.Parts[0])
				o.layer["kernel.matvec_gbps"] = matvecGBps(s.tenants[1].enc.Parts[0])
			}
		}
		s.c.close()
		if o.failed > 0 {
			break
		}
	}
	rounds := o.count()
	tp, tail := o.tail(99)
	o.named = []named{
		{Name: "rounds_per_s", Value: o.opsPerSec(), Unit: "1/s", Note: "both tenants"},
		{Name: "round_ms_p50", Value: o.opP50(), Unit: "ms", Note: fmt.Sprintf("n=%d (A %d, B %d)", rounds, nA, nB)},
		{Name: fmt.Sprintf("round_ms_p%g", tp), Value: tail, Unit: "ms"},
	}
	if cfg.tr != nil && rounds > 0 {
		o.layer["wire.bytes_per_round"] = float64(bytes) / float64(rounds)
	}
	return o, nil
}

// tenantLoop runs rounds of one tenant until the deadline (once only when
// warm is set), timing plan, round and decode, then checking the decode.
func tenantLoop(t *serveTenant, id int, gfChk *gfCheck, fChk *floatCheck, r *tenantRun,
	tagBase int, deadline time.Time, warm bool, seed int64, tr *tracer) {
	rng := rand.New(rand.NewSource(seed*31 + int64(id)))
	speeds := equalSpeeds(serveN)
	var (
		gfWS  *coding.GFDecodeWorkspace
		fWS   *coding.DecodeWorkspace
		gfDst []gf.Elem
		fDst  []float64
		gfX   = make([]gf.Elem, serveCols)
		fX    = make([]float64, serveCols*serveBatch)
	)
	if t.gfEnc != nil {
		gfWS = t.gfEnc.NewDecodeWorkspace()
	} else {
		fWS = t.enc.NewDecodeWorkspace()
	}
	for i := 0; warm && i < 1 || !warm && time.Now().Before(deadline); i++ {
		iter := tagBase + i
		op := int64(id)<<40 | int64(iter)
		if t.gfEnc != nil {
			for i := range gfX {
				gfX[i] = gf.New(rng.Uint64())
			}
		} else {
			for i := range fX {
				fX[i] = rng.NormFloat64()
			}
		}
		r.attempted++
		root := tr.begin("bench.round", op, -1)
		t0 := time.Now()
		sp := tr.begin("sched.plan", op, root)
		plan, err := t.job.PlanRound(t.strat, speeds)
		tr.end(sp)
		if err == nil {
			if t.gfEnc != nil {
				var partials []*coding.GFPartial
				sp = tr.begin("rpc.round", op, root)
				partials, _, err = t.job.RunGFRound(iter, 0, gfX, plan, serveK, serveTimeoutFrac)
				tr.end(sp)
				if err == nil {
					sp = tr.begin("coding.decode", op, root)
					gfDst, err = t.gfEnc.DecodeMatVecInto(gfDst, partials, gfWS)
					tr.end(sp)
				}
			} else {
				var partials []*coding.Partial
				sp = tr.begin("rpc.round", op, root)
				partials, _, err = t.job.RunRoundBatch(iter, 0, fX, serveBatch, plan, serveK, serveTimeoutFrac)
				tr.end(sp)
				if err == nil {
					sp = tr.begin("coding.decode", op, root)
					fDst, err = t.enc.DecodeMatVecInto(fDst, partials, fWS)
					tr.end(sp)
				}
			}
		}
		lat := ms(time.Since(t0))
		tr.end(root)
		if err == nil {
			ok := false
			if t.gfEnc != nil {
				ok = gfChk.ok(gfDst, gfX, 1, rng)
			} else {
				ok = fChk.ok(fDst, fX, serveBatch, rng)
			}
			if !ok {
				err = fmt.Errorf("decode differs from A·x")
			}
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve-mixed tenant %d round %d: %v\n", id, iter, err)
			return
		}
		if !warm {
			r.lat = append(r.lat, lat)
		}
	}
}

// gfMatvecGBps times gf.Matrix.MulVecRangeInto over a whole share and
// returns the bytes of A it streams per second, in GB/s.
func gfMatvecGBps(a *gf.Matrix) float64 {
	rows, cols := a.Dims()
	x := make([]gf.Elem, cols)
	for i := range x {
		x[i] = gf.Elem(i + 1)
	}
	y := make([]gf.Elem, rows)
	calls := 0
	t0 := time.Now()
	for calls < 3 || time.Since(t0) < 200*time.Millisecond {
		a.MulVecRangeInto(y, x, 0, rows)
		calls++
	}
	return float64(calls*rows*cols*4) / time.Since(t0).Seconds() / 1e9
}
