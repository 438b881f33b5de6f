package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// job-churn: one client opens a job, encodes a dataset, distributes it,
// runs one batched round, checks the decode and closes the job — over
// and over, alternating GF and float64 datasets.
const (
	churnN, churnK       = 4, 3
	churnRows, churnCols = 1024, 256
	churnBatch           = 2
	churnTimeoutFrac     = 0.15
	churnSetups          = 9
	// churnEpochJobs jobs run on one cluster before it is replaced. Closed
	// jobs leave their partitions on the workers (about 2 MB a job at
	// this commit), so an unbounded run would exhaust memory; the growth
	// over the first epoch is reported as mem.heap_growth_mb.
	churnEpochJobs = 200
	// churnDatasets raw datasets (half GF, half float64) are generated up
	// front and cycled; every job encodes and distributes its own copy.
	churnDatasets = 4
)

type churnData struct {
	gf    *gf.Matrix
	gfChk *gfCheck
	f     *mat.Dense
	fChk  *floatCheck
}

func runChurn(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	data := make([]churnData, churnDatasets)
	for i := range data {
		if i%2 == 0 {
			data[i].gf = gf.NewMatrixFromData(churnRows, churnCols, randElems(churnRows*churnCols, rng))
			data[i].gfChk = newGFCheck(data[i].gf, rng)
		} else {
			data[i].f = mat.NewFromData(churnRows, churnCols, randFloats(churnRows*churnCols, rng))
			data[i].fChk = newFloatCheck(data[i].f, rng)
		}
	}
	gfCode, err := coding.NewGFMDSCode(churnN, churnK)
	if err != nil {
		return nil, err
	}
	fCode, err := coding.NewMDSCode(churnN, churnK)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		layer: map[string]float64{},
		inputs: map[string]any{
			"n": churnN, "k": churnK, "matrix": fmt.Sprintf("%dx%d, alternating GF(2^31-1) and float64", churnRows, churnCols),
			"batch_width": churnBatch, "rounds_per_job": 1, "tenants": "1 at a time", "clients": 1,
			"slowdown": 1, "jobs_per_cluster": churnEpochJobs, "timeout_frac": churnTimeoutFrac, "data_seed": cfg.seed,
		},
	}

	// setup starts a cluster and runs one untimed-by-the-loop warm-up job
	// on it: the set-up ends when the cluster has served its first job.
	setup := func() (*cluster, error) {
		c, err := startCluster(equalSpeeds(churnN), cfg.relay)
		if err != nil {
			return nil, err
		}
		if _, err := churnJob(c, &data[0], gfCode, fCode, -1, rng, nil); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		return c, nil
	}
	var c *cluster
	for i := 0; i < churnSetups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		if c, err = setup(); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer func() { c.close() }()

	heap0 := heapInuseMB()
	var distMBps, roundBytes []float64
	// Whole epochs run until the time is up; each is one block.
	start := time.Now()
	for epoch := 0; epoch == 0 || time.Since(start) < cfg.deadline() && o.failed == 0; epoch++ {
		if epoch > 0 {
			if epoch == 1 {
				o.layer["mem.heap_growth_mb"] = heapInuseMB() - heap0
			}
			c.close()
			if c, err = setup(); err != nil {
				return nil, err
			}
		}
		e0 := time.Now()
		var block []float64
		for len(block) < churnEpochJobs {
			i := o.count() + len(block)
			o.attempted++
			j, err := churnJob(c, &data[i%len(data)], gfCode, fCode, i, rng, cfg.tr)
			if err != nil {
				o.fail("job-churn job %d: %v", i, err)
				break
			}
			block = append(block, j.ms)
			distMBps = append(distMBps, j.distMBps)
			roundBytes = append(roundBytes, float64(j.roundBytes))
		}
		o.blocks = append(o.blocks, block)
		o.rates = append(o.rates, float64(len(block))/time.Since(e0).Seconds())
	}
	if len(o.blocks) == 1 {
		o.layer["mem.heap_growth_mb"] = heapInuseMB() - heap0
	}
	o.layer["mem.heap_inuse_mb"] = heapInuseMB()
	tp, tail := o.tail(90)
	o.named = []named{
		{Name: "jobs_per_s", Value: o.opsPerSec(), Unit: "1/s", Note: fmt.Sprintf("n=%d", o.count())},
		{Name: "job_ms_p50", Value: o.opP50(), Unit: "ms"},
		{Name: fmt.Sprintf("job_ms_p%g", tp), Value: tail, Unit: "ms"},
		{Name: "heap_growth_mb", Value: o.layer["mem.heap_growth_mb"], Unit: "MB", Note: fmt.Sprintf("over the first %d closed jobs", len(o.blocks[0]))},
	}
	if cfg.tr != nil {
		o.layer["wire.distribute_mbps"] = median(distMBps)
		o.layer["wire.bytes_per_round"] = mean(roundBytes)
		gfEnc, err := gfCode.Encode(churnRows, churnCols, data[0].gf.Data())
		if err != nil {
			return nil, err
		}
		o.layer["kernel.gf_matvec_gbps"] = gfMatvecGBps(gfEnc.Parts[0])
		o.layer["kernel.matvec_gbps"] = matvecGBps(fCode.Encode(data[1].f).Parts[0])
	}
	return o, nil
}

// churnResult is what one job cycle measured.
type churnResult struct {
	ms         float64
	distMBps   float64
	roundBytes int64
}

// churnJob runs one open → encode → distribute → round → decode → close
// cycle and checks the decode. Only the cycle is timed; the check is not.
func churnJob(c *cluster, d *churnData, gfCode *coding.GFMDSCode, fCode *coding.MDSCode, i int,
	rng *rand.Rand, tr *tracer) (churnResult, error) {
	var res churnResult
	op := int64(i)
	root := tr.begin("bench.job", op, -1)
	t0 := time.Now()
	sp := tr.begin("rpc.open", op, root)
	job := c.m.OpenJob(rpc.JobConfig{})
	tr.end(sp)
	closeJob := func() {
		sp := tr.begin("rpc.close", op, root)
		job.Close()
		tr.end(sp)
	}
	speeds := equalSpeeds(churnN)
	var (
		gfEnc      *coding.GFEncodedMatrix
		enc        *coding.EncodedMatrix
		blockRows  int
		partBytes  int
		gfXs, gfY  []gf.Elem
		fXs, fY    []float64
		distStart  time.Time
		distMs     float64
		bytesStart int64
		err        error
	)
	sp = tr.begin("coding.encode", op, root)
	if d.gf != nil {
		gfEnc, err = gfCode.Encode(churnRows, churnCols, d.gf.Data())
		if err == nil {
			blockRows, partBytes = gfEnc.BlockRows, churnN*gfEnc.BlockRows*churnCols*4
		}
	} else {
		enc = fCode.Encode(d.f)
		blockRows, partBytes = enc.BlockRows, churnN*enc.BlockRows*churnCols*8
	}
	tr.end(sp)
	if err != nil {
		closeJob()
		return res, fmt.Errorf("encode: %w", err)
	}

	sp = tr.begin("rpc.distribute", op, root)
	distStart = time.Now()
	if gfEnc != nil {
		err = job.DistributeGFPartitions(0, gfEnc.Parts)
	} else {
		err = job.DistributePartitions(0, enc)
	}
	distMs = ms(time.Since(distStart))
	tr.end(sp)
	if err != nil {
		closeJob()
		return res, fmt.Errorf("distribute: %w", err)
	}

	sp = tr.begin("sched.plan", op, root)
	plan, err := job.PlanRound(&sched.GeneralS2C2{N: churnN, K: churnK, BlockRows: blockRows}, speeds)
	tr.end(sp)
	if err != nil {
		closeJob()
		return res, fmt.Errorf("plan: %w", err)
	}

	bytesStart = c.relayed()
	if gfEnc != nil {
		gfXs = randElems(churnCols*churnBatch, rng)
		var partials []*coding.GFPartial
		sp = tr.begin("rpc.round", op, root)
		partials, _, err = job.RunGFRoundBatch(0, 0, gfXs, churnBatch, plan, churnK, churnTimeoutFrac)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("coding.decode", op, root)
			gfY, err = gfEnc.DecodeMatVec(partials)
			tr.end(sp)
		}
	} else {
		fXs = randFloats(churnCols*churnBatch, rng)
		var partials []*coding.Partial
		sp = tr.begin("rpc.round", op, root)
		partials, _, err = job.RunRoundBatch(0, 0, fXs, churnBatch, plan, churnK, churnTimeoutFrac)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("coding.decode", op, root)
			fY, err = enc.DecodeMatVec(partials)
			tr.end(sp)
		}
	}
	res.roundBytes = c.relayed() - bytesStart
	closeJob()
	res.ms = ms(time.Since(t0))
	tr.end(root)
	if err != nil {
		return res, fmt.Errorf("round: %w", err)
	}
	if distMs > 0 {
		res.distMBps = float64(partBytes) / 1e6 / (distMs / 1e3)
	}
	var ok bool
	if gfEnc != nil {
		ok = d.gfChk.ok(gfY, gfXs, churnBatch, rng)
	} else {
		ok = d.fChk.ok(fY, fXs, churnBatch, rng)
	}
	if !ok {
		return res, fmt.Errorf("decode differs from A·x")
	}
	return res, nil
}
