// Command perfbench is the s2c2 benchmark. It drives the system only
// through its public calls — rpc.Master/Job/Worker on an in-process
// loopback cluster, the coding codecs, sched strategies, predict
// forecasters, sim.RunIterative and the kernel/gf entry points — and
// checks every output it gets back.
//
//	perfbench --workload gd-straggler --seed 1 --seconds 10 --trace 0
//
// prints each end-to-end metric by name and unit, then one JSON line with
// the generic metrics of BENCHMARK.json. --trace 1 runs the workload
// twice, untraced and then traced (spans kept in memory, workers behind a
// byte-counting relay), and reports the per-layer metrics and the tracing
// overhead. --workload all runs every workload in turn. --compare a b
// prints the change between two result files written under --out, and
// refuses when their machine fingerprints differ.
//
// Workloads, sizes and the reasons for them are in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a workload's own end-to-end metric, printed under the name it
// has in README.md.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// runConfig is what a workload run is given.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: untraced
	relay   bool    // workers connect through a byte-counting relay
}

func (c runConfig) deadline() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what one workload run measured.
type outcome struct {
	inputs map[string]any
	setup  []float64 // seconds per set-up repetition
	// A run is measured in blocks (fresh clusters, job epochs or groups
	// of simulated jobs), and each end-to-end figure is the median of the
	// blocks' figures, so that a block slowed by the shared host does not
	// move the run.
	blocks    [][]float64 // ms per measured operation, one slice per block
	rates     []float64   // operations per second, one per block
	attempted int
	failed    int
	named     []named
	layer     map[string]float64 // per-layer values the workload measured itself
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (o *outcome) count() int {
	n := 0
	for _, b := range o.blocks {
		n += len(b)
	}
	return n
}

func (o *outcome) opP50() float64 {
	meds := make([]float64, len(o.blocks))
	for i, b := range o.blocks {
		meds[i] = median(b)
	}
	return median(meds)
}

func (o *outcome) opsPerSec() float64 { return median(o.rates) }

// tail returns the tail percentile want, lowered until every block has
// at least minBeyond samples beyond it, and its value.
func (o *outcome) tail(want float64) (p, v float64) {
	n := -1
	for _, b := range o.blocks {
		if n < 0 || len(b) < n {
			n = len(b)
		}
	}
	p = tailPercentile(n, want)
	tails := make([]float64, len(o.blocks))
	for i, b := range o.blocks {
		tails[i] = percentile(b, p)
	}
	return p, median(tails)
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloadList = []workload{
	{"gd-straggler", runGD},
	{"serve-mixed", runServe},
	{"job-churn", runChurn},
	{"sim-cloud", runSimCloud},
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order; every workload reports all of them, for its own operation (a
// GD iteration of the S2C2 lane, a served round, a job cycle, a simulated
// iteration). The gated tail is p90 on every workload: serve-mixed prints
// its p99 too, but on a shared two-core host that tail doubles between
// runs when the host steals time, so it cannot carry a bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics a traced run reports. A layer a workload does
// not call reads 0.
var perLayer = []struct{ name, unit string }{
	{"kernel.matvec_gbps", "GB/s"},
	{"kernel.gf_matvec_gbps", "GB/s"},
	{"coding.encode_ms", "ms"},
	{"coding.decode_ms", "ms"},
	{"sched.plan_us", "us"},
	{"sched.useful_frac", "fraction"},
	{"sched.reassigned_rows", "rows"},
	{"sched.grace_fired_frac", "fraction"},
	{"sched.speedup_vs_mds", "ratio"},
	{"predict.step_us", "us"},
	{"predict.mape", "fraction"},
	{"rpc.round_ms", "ms"},
	{"rpc.first_k_ms", "ms"},
	{"rpc.after_k_ms", "ms"},
	{"rpc.distribute_ms", "ms"},
	{"wire.bytes_per_round", "bytes"},
	{"wire.distribute_mbps", "MB/s"},
	{"workloads.step_us", "us"},
	{"mem.heap_inuse_mb", "MB"},
	{"mem.heap_growth_mb", "MB"},
	{"sim.mispred_frac", "fraction"},
	{"sim.speedup_vs_mds", "ratio"},
	{"sim.waste_frac", "fraction"},
	{"bench.self_ms", "ms"},
	{"coding.self_ms", "ms"},
	{"predict.self_ms", "ms"},
	{"rpc.self_ms", "ms"},
	{"sched.self_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"workloads.self_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics are per-layer metrics read off the spans of one name, as the
// median span duration in the metric's unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64 // ms → metric unit
}{
	{"coding.encode_ms", "coding.encode", 1},
	{"coding.decode_ms", "coding.decode", 1},
	{"sched.plan_us", "sched.plan", 1e3},
	{"predict.step_us", "predict.step", 1e3},
	{"rpc.round_ms", "rpc.round", 1},
	{"rpc.distribute_ms", "rpc.distribute", 1},
	{"workloads.step_us", "workloads.step", 1e3},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, written under --out.
type record struct {
	Fingerprint fingerprint    `json:"fingerprint"`
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Inputs      map[string]any `json:"inputs"`
	Named       []named        `json:"named"`
	Result      result         `json:"result"`
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Backend    string `json:"kernel_backend"`
	BackendEnv string `json:"kernel_backend_env"`
	GoVersion  string `json:"go_version"`
}

func machine() fingerprint {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{
		CPU:        cpu,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend:    kernel.ActiveBackend(),
		BackendEnv: os.Getenv("S2C2_KERNEL_BACKEND"),
		GoVersion:  runtime.Version(),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "", "directory for result and span files (none when empty)")
	compare := flag.Bool("compare", false, "compare the two result files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	fp := machine()
	fmt.Printf("# machine: cpu=%q nproc=%d gomaxprocs=%d kernel_backend=%s S2C2_KERNEL_BACKEND=%q %s\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.Backend, fp.BackendEnv, fp.GoVersion)

	var todo []workload
	for _, w := range workloadList {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown --workload %q", *name))
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		rec, err := runOne(w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rec.Fingerprint = fp
		if *out != "" {
			if err := writeRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		if len(todo) == 1 {
			all = rec.Result
			break
		}
		all.Correct = all.Correct && rec.Result.Correct
		all.Attempted += rec.Result.Attempted
		all.Failed += rec.Result.Failed
		for k, v := range rec.Result.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runOne runs one workload, untraced or (trace) untraced then traced, and
// prints its metrics.
func runOne(w workload, seed int64, seconds float64, trace bool, outDir string) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace}
	cfg := runConfig{seed: seed, seconds: seconds}
	if trace {
		cfg.seconds = seconds / 2
	}
	plain, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	rec.Inputs = plain.inputs
	fmt.Printf("# %s seed %d inputs %s\n", w.name, seed, mustJSON(plain.inputs))
	res := result{Metrics: map[string]metric{}}
	if !trace {
		res.Attempted, res.Failed = plain.attempted, plain.failed
		p, tail := plain.tail(90)
		vals := map[string]float64{
			"setup_s":   median(plain.setup),
			"op_ms_p50": plain.opP50(),
			"op_ms_p90": tail,
			"ops_per_s": plain.opsPerSec(),
		}
		notes := map[string]string{
			"setup_s":   fmt.Sprintf("median of %d set-ups", len(plain.setup)),
			"op_ms_p50": fmt.Sprintf("n=%d in %d blocks", plain.count(), len(plain.blocks)),
			"op_ms_p90": fmt.Sprintf("at p%g", p),
			"ops_per_s": fmt.Sprintf("median of %d blocks", len(plain.rates)),
		}
		rows := append(plain.named, named{Name: "failed_frac", Value: failedFrac(plain.attempted, plain.failed),
			Unit: "fraction", Note: fmt.Sprintf("%d of %d operations", plain.failed, plain.attempted)})
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
			rows = append(rows, named{Name: m.name, Value: vals[m.name], Unit: m.unit, Note: notes[m.name]})
		}
		printNamed(w.name, rows)
		rec.Named = rows
	} else {
		cfg.tr, cfg.relay = newTracer(), true
		traced, err := w.run(cfg)
		if err != nil {
			return nil, err
		}
		rec.Named = traced.named
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
		vals := layerValues(cfg.tr, traced)
		if base := plain.opP50(); base > 0 {
			vals["trace.overhead_pct"] = 100 * (traced.opP50() - base) / base
		}
		var rows []named
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
			rows = append(rows, named{Name: m.name, Value: vals[m.name], Unit: m.unit})
			if m.name == "trace.overhead_pct" {
				rows[len(rows)-1].Note = fmt.Sprintf("op_ms_p50 %.6g ms untraced, %.6g ms traced", plain.opP50(), traced.opP50())
			}
		}
		printNamed(w.name, rows)
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
			if err := cfg.tr.write(path); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	res.Correct = res.Failed == 0
	rec.Result = res
	return rec, nil
}

// layerValues merges the workload's own per-layer values with those read
// off the spans: median span durations and each layer's self time per
// operation.
func layerValues(tr *tracer, o *outcome) map[string]float64 {
	vals := map[string]float64{}
	for _, sm := range spanMetrics {
		if d := tr.durations(sm.span); len(d) > 0 {
			vals[sm.metric] = median(d) * sm.scale
		}
	}
	// Self time is per traced operation: per root span of a measured
	// operation, which in gd-straggler counts both lanes' iterations.
	roots := 0
	for _, s := range tr.spans {
		if s.Op >= 0 && s.Parent < 0 {
			roots++
		}
	}
	if roots > 0 {
		for layer, d := range selfTimes(tr.spans) {
			vals[layer+".self_ms"] = ms(d) / float64(roots)
		}
	}
	for k, v := range o.layer {
		vals[k] = v
	}
	return vals
}

func printNamed(workload string, ns []named) {
	for _, n := range ns {
		note := ""
		if n.Note != "" {
			note = "(" + n.Note + ")"
		}
		fmt.Printf("%-14s %-24s %14.6g %-9s %s\n", workload, n.Name, n.Value, n.Unit, note)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, t)), b, 0o644)
}

// compareFiles prints the change of every metric from result file a to b.
// Results from different machines or builds are not compared: the
// mismatch is reported instead, and the exit code is 3.
func compareFiles(a, b string) int {
	ra, err := readRecord(a)
	if err != nil {
		fatal(err)
	}
	rb, err := readRecord(b)
	if err != nil {
		fatal(err)
	}
	if ra.Fingerprint != rb.Fingerprint {
		fmt.Printf("fingerprints differ, no comparison:\n  %s: %s\n  %s: %s\n", a, mustJSON(ra.Fingerprint), b, mustJSON(rb.Fingerprint))
		return 3
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace {
		fmt.Printf("different runs, no comparison: %s trace=%v vs %s trace=%v\n", ra.Workload, ra.Trace, rb.Workload, rb.Trace)
		return 3
	}
	names := make([]string, 0, len(ra.Result.Metrics))
	for k := range ra.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		va := ra.Result.Metrics[k]
		vb, ok := rb.Result.Metrics[k]
		if !ok {
			fmt.Printf("%-24s %14.6g %-9s → missing\n", k, va.Value, va.Unit)
			continue
		}
		change := "n/a"
		if va.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(vb.Value-va.Value)/va.Value)
		}
		fmt.Printf("%-24s %14.6g → %-14.6g %-9s %s\n", k, va.Value, vb.Value, va.Unit, change)
	}
	return 0
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
