// Command perfbench is the repository's end-to-end benchmark. It drives the
// public API of the Nautilus packages (core, exec, storage, tensor, simclock)
// from outside, on one of three closed-loop workloads, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload ftr3-cycles --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the workload once untraced and once through a composed, traced path
// and reports the per-layer metrics. See README.md for the workloads and the
// metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"nautilus/internal/tensor"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"selection_s", "s"},
	{"first_cycle_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"disk_mb", "MB"},
	{"plan_cost_ratio", "ratio"},
}

// perLayer lists the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"core.replan_s", "s"},
	{"core.replans", "count"},
	{"core.evolve_s", "s"},
	{"core.mat_solve_nodes", "count"},
	{"core.fuse_states", "count"},
	{"core.groups", "count"},
	{"core.materialized", "count"},
	{"core.verify_checked_ratio", "ratio"},
	{"core.delta_new_sigs", "count"},
	{"core.delta_orphaned_sigs", "count"},
	{"exec.reconcile_s", "s"},
	{"exec.sync_s", "s"},
	{"exec.sync_records", "count"},
	{"exec.train_s", "s"},
	{"exec.train_steps", "count"},
	{"exec.train_gflop", "GFLOP"},
	{"exec.train_gflops_per_s", "GFLOP/s"},
	{"exec.train_allocs_per_step", "1/step"},
	{"exec.train_alloc_mb", "MB"},
	{"exec.ckpt_s", "s"},
	{"exec.ckpt_mb", "MB"},
	{"storage.read_calls", "count"},
	{"storage.read_mb", "MB"},
	{"storage.write_calls", "count"},
	{"storage.write_mb", "MB"},
	{"storage.cache_hit_ratio", "ratio"},
	{"storage.footprint_mb", "MB"},
	{"tensor.dispatch_tuned", "count"},
	{"tensor.dispatch_fallback", "count"},
	{"tensor.arena_gets", "count"},
	{"tensor.arena_hit_ratio", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"sim.init_s", "s"},
	{"sim.compute_s", "s"},
	{"sim.io_s", "s"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is a fresh scratch directory for stores and checkpoints.
	dir string
	// traceFile receives the traced run's spans as JSON lines.
	traceFile string
}

// outcome is what a workload run reports back.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check.
	problems []string
	metrics  map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadsByName maps each workload name to its runner.
var workloadsByName = map[string]func(options) (*outcome, error){
	"ftr3-cycles":  func(o options) (*outcome, error) { return runMini(ftr3Cycles, o) },
	"ftu-finetune": func(o options) (*outcome, error) { return runMini(ftuFinetune, o) },
	"plan-evolve":  runEvolve,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: ftr3-cycles, ftu-finetune or plan-evolve")
	seed := flag.Int64("seed", 1, "seed for the generated data pool and event script")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, composed path and reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for build outputs, stores and traces")
	flag.Parse()

	run, ok := workloadsByName[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *workload, *trace, *seconds)
		os.Exit(2)
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d tensor_workers=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.MaxWorkers(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceFile: filepath.Join(*workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	res, err := runIn(*workDir, *workload, run, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runIn runs the workload in a fresh directory under workDir, which it
// removes afterwards, prints the notes, failed checks and metrics, and
// returns the result object.
func runIn(workDir, workload string, run func(options) (*outcome, error), o options) (*jsonResult, error) {
	if err := os.MkdirAll(filepath.Dir(o.traceFile), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	out, err := run(o)
	if err != nil {
		return nil, err
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &jsonResult{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", workload, d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-28s %16.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

// dirMB sums the sizes of the regular files under dir, in MB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6, err
}
