// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload — three sweep configurations and a servd traffic mix —
// for a measurement window, checks every output, and prints its metrics
// by name, with units, as one JSON object on the last line of stdout.
//
//	perfbench --workload sweep-model --seed 1 --seconds 20 --trace 0 \
//	    --bin .bench_build/bin --work .bench_build/work
//
// With --trace 0 the object holds the end-to-end metrics, with --trace 1
// the per-layer ones. README.md documents the workloads and metrics;
// run.py builds this program and servd from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics a --trace 0 run reports; every workload
// reports all of them. A "unit of work" is a sweep job on the sweep
// workloads and a servd request on serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // process start to the first job or request
	{"throughput_per_s", "1/s"}, // sweep jobs per second of sweep.Run; servd's highest passing staircase rate
	{"latency_ms_p50", "ms"},    // per-job wall time; per-request latency from due time at the nominal rate
	{"latency_ms_tail", "ms"},   // p90 of jobs; p95 of requests
	{"peak_rss_mb", "MB"},       // peak RSS of the sweep process or of servd
}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// does not exercise, or that cannot be observed from outside servd,
// reads 0.
var perLayer = []metricDef{
	{"mcnc.load.calls", "count"},
	{"mcnc.load.busy_s", "s"},
	{"sweep.cache.hit_frac", "frac"},
	{"reorder.calls", "count"},
	{"reorder.busy_s", "s"},
	{"reorder.gates", "count"},
	{"reorder.us_per_gate", "us"},
	{"reorder.share", "frac"},
	{"delay.calls", "count"},
	{"delay.busy_s", "s"},
	{"stoch.draw.busy_s", "s"},
	{"stoch.draw.transitions", "count"},
	{"stoch.draw.ns_per_transition", "ns"},
	{"stoch.draw.share", "frac"},
	{"stoch.pack.calls", "count"},
	{"stoch.pack.busy_s", "s"},
	{"stoch.pack.events", "count"},
	{"stoch.pack.ns_per_event", "ns"},
	{"stoch.pack.alloc_mb", "MB"},
	{"stoch.pack.share", "frac"},
	{"sim.compile.calls", "count"},
	{"sim.compile.busy_s", "s"},
	{"sim.compile.ops", "count"},
	{"sim.run.calls", "count"},
	{"sim.run.busy_s", "s"},
	{"sim.run.vectors", "count"},
	{"sim.run.instants", "count"},
	{"sim.run.ns_per_vector", "ns"},
	{"sim.run.share", "frac"},
	{"store.put.calls", "count"},
	{"store.put.busy_s", "s"},
	{"store.put.bytes", "bytes"},
	{"serve.analyze.ms_p50", "ms"},
	{"serve.optimize.ms_p50", "ms"},
	{"serve.simulate.ms_p50", "ms"},
	{"serve.cache.response.hit_frac", "frac"},
	{"serve.cache.program.hit_frac", "frac"},
	{"serve.cache.circuit.hit_frac", "frac"},
	{"serve.shed", "count"},
	{"serve.deadline", "count"},
	{"loadgen.lag_ms_p95", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

type metricDef struct{ name, unit string }

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-model", "sweep-zero", "sweep-timed", "serve-mix"}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smallest inputs, for the self-tests
	corrupt  string // self-test hook: "result" or "response"
	binDir   string // holds servd
	workDir  string // scratch space for stores and span files
	self     string // this executable, re-run as the sweep worker
	nproc    int

	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

// fail records a failed unit of work with the reason.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain())
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced runs instead of end-to-end ones")
	tiny := fs.Bool("tiny", false, "smallest inputs (self-tests)")
	corrupt := fs.String("corrupt", "", "self-test hook: corrupt one checked output (result or response)")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding the servd binary")
	workDir := fs.String("work", ".bench_build/work", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 ||
		(*corrupt != "" && *corrupt != "result" && *corrupt != "response") {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of", workloadNames, "--trace 0|1, --seconds > 0, --corrupt result|response")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tiny: *tiny, corrupt: *corrupt, binDir: *binDir, self: self,
		nproc: runtime.NumCPU(), values: map[string]float64{},
	}
	if b.workDir, err = filepath.Abs(*workDir); err == nil {
		err = os.MkdirAll(b.workDir, 0o755)
	}
	if err == nil {
		if *workload == "serve-mix" {
			err = b.runServe()
		} else {
			err = b.runSweep()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.report()
}

// report prints the problems and the result line.
func (b *bench) report() int {
	for _, p := range b.problems {
		fmt.Println("FAIL", p)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: b.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
