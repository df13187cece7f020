// Command perfbench is the repository's end-to-end benchmark: it turns
// simulated packet traces into handlers through the program's public
// entry points, checks every handler, and prints one JSON result line.
//
//	perfbench --workload cold-cubic --seed 3 --seconds 15 --trace 0
//	perfbench --smoke
//
// run.sh builds and runs it from the repository root; README.md describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/replay"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are printed with --trace 0, perLayer with --trace 1. Both lists
// are mirrored in BENCHMARK.json; --smoke checks that they agree.
var (
	endToEnd = []metricDef{
		{"handler_s_p50", "s"},
		{"traces_per_s", "1/s"},
		{"cpu_s_per_trace", "s"},
		{"alloc_mb_per_trace", "MB"},
		{"peak_rss_mb", "MB"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"dist_ratio", "ratio"},
		{"trace.analyze_s", "s"},
		{"trace.packets", "count"},
		{"trace.segments", "count"},
		{"enum.take_s", "s"},
		{"enum.candidates", "count"},
		{"enum.sketches", "count"},
		{"enum.yield", "ratio"},
		{"enum.scan_budget_exhausted", "count"},
		{"dsl.compile_s", "s"},
		{"dsl.progs_compiled", "count"},
		{"core.synthesize_s", "s"},
		{"core.worker_busy_s", "s"},
		{"core.score_self_s", "s"},
		{"core.util", "ratio"},
		{"core.handlers_scored", "count"},
		{"core.handlers_per_cpu_s", "1/s"},
		{"core.cache_hit_ratio", "ratio"},
		{"core.funnel_full_ratio", "ratio"},
		{"replay.instrs_executed", "count"},
		{"replay.lane_occupancy", "ratio"},
		{"replay.prologue_hit_ratio", "ratio"},
		{"dist.dtw_cells", "count"},
		{"dist.lb_prune_ratio", "ratio"},
		{"corpus.prewarm_s", "s"},
		{"corpus.snapshot_load_s", "s"},
		{"corpus.program_cache_hit_ratio", "ratio"},
		{"corpus.sketches_shared", "count"},
		{"service.submit_s_p50", "s"},
		{"service.queue_wait_s_p50", "s"},
		{"service.run_s_p50", "s"},
		{"go.gc_cpu_s", "s"},
		{"go.gc_cycles", "count"},
		{"bench.trace_overhead", "ratio"},
	}
)

// workloads maps a --workload name to its runner.
var workloads = map[string]func(config) (*runResult, error){
	"cold-cubic":        runCold,
	"warm-daemon":       runWarm,
	"batch-reno-family": runBatch,
}

// workloadOrder is the order --smoke runs them in.
var workloadOrder = []string{"cold-cubic", "warm-daemon", "batch-reno-family"}

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	dur       time.Duration
	traced    bool
	budget    int
	setupReps int    // set-ups timed for setup_s (median)
	smoke     bool   // one trace per scenario list
	procs     int    // GOMAXPROCS
	dir       string // the run's scratch directory: traces, request bodies, snapshots
}

// workRoot holds each run's scratch directory while the run lasts.
const workRoot = ".bench_build/work"

// pick returns the scenarios a run uses: all, or the first in smoke mode.
func (c config) pick(scs []scenario) []scenario {
	if c.smoke {
		return scs[:1]
	}
	return scs
}

// runResult is what a workload measured.
type runResult struct {
	outcomes   []outcome // every handler produced in the timed section
	wall       float64   // timed section, seconds
	proc       procDelta // process costs over the timed section
	setupS     float64
	handlerP50 float64
	checks     []error            // extra checks (standalone answers, reconciliation, set-up); nil is a pass
	layers     map[string]float64 // per-layer metrics (traced runs)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-cubic | warm-daemon | batch-reno-family")
		seed     = flag.Int64("seed", 1, "workload seed: the traces are simulated from it")
		seconds  = flag.Int("seconds", 15, "how long the timed section runs (it always finishes one pass over its traces)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, instruments off; 1: per-layer metrics")
		smoke    = flag.Bool("smoke", false, "self-test: every workload at a tiny budget, checking names, units and failures")
		spec     = flag.String("spec", "BENCHMARK.json", "smoke mode: the benchmark definition to check against")
	)
	flag.Parse()
	if *smoke {
		if err := smokeTest(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench smoke: ok")
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		dur:       time.Duration(*seconds) * time.Second,
		traced:    *traced == 1,
		budget:    budget,
		setupReps: 3,
		procs:     procs(),
	}
	res, err := run(cfg)
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

// run executes one workload and assembles its result, printing the
// provenance and the per-trace quality table as comment lines first.
func run(cfg config) (*result, error) {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := obs.ReadBuild()
	prov := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.dur / time.Second),
		GOMAXPROCS: cfg.procs, NumCPU: runtime.NumCPU(), GoVersion: goVersion(),
		Revision: b.Revision, Modified: b.Modified, Host: hostname(),
		CalibMsA: calibrate(),
	}
	if cfg.traced {
		prov.Trace = 1
	}
	if prov.Revision == "" {
		prov.Revision = "unknown"
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	r, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	prov.CalibMsB = calibrate()
	if p, err := json.Marshal(prov); err == nil {
		fmt.Printf("# provenance %s\n", p)
	}

	res := &result{Metrics: map[string]metricValue{}}
	var failures []error
	for _, o := range r.outcomes {
		res.Attempted++
		if err := verify(o); err != nil {
			failures = append(failures, err)
		}
		fmt.Printf("# handler %-28s %8.3fs\n", o.in.name, o.latency.Seconds())
	}
	for _, err := range r.checks {
		res.Attempted++
		if err != nil {
			failures = append(failures, err)
		}
	}
	res.Failed = len(failures)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}

	distRatio := qualityTable(r)
	if cfg.traced {
		r.layers["dist_ratio"] = distRatio
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{r.layers[m.name], m.unit}
		}
		printLayers(r.layers)
	} else {
		n := float64(len(r.outcomes))
		vals := map[string]float64{
			"handler_s_p50":      r.handlerP50,
			"traces_per_s":       n / r.wall,
			"cpu_s_per_trace":    r.proc.cpu / n,
			"alloc_mb_per_trace": r.proc.allocB / n / 1e6,
			"peak_rss_mb":        peakRSSMB(),
			"setup_s":            r.setupS,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	fmt.Printf("# fail_ratio %d/%d\n", res.Failed, res.Attempted)
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return res, nil
}

// qualityTable prints, for the first answer on each input, the synthesized
// distance, the expert handler's distance and their ratio, and returns
// dist_ratio: the summed synthesized distance over the summed expert
// distance. Only first answers count, so dist_ratio depends on the seed and
// not on how many traces the timed section got through. The ratio of sums
// weighs each trace by its expert distance; per-trace ratios swing tenfold
// from seed to seed on traces both handlers fit closely.
func qualityTable(r *runResult) float64 {
	seen := map[*input]bool{}
	var syn, exp float64
	for _, o := range r.outcomes {
		if seen[o.in] || o.err != nil {
			continue
		}
		seen[o.in] = true
		syn += o.dist
		exp += o.in.expert
		fmt.Printf("# quality %-28s synthesized %12.4f  expert %12.4f  ratio %.4f  %s\n",
			o.in.name, o.dist, o.in.expert, o.dist/o.in.expert, o.handler)
	}
	fmt.Printf("# quality %-28s synthesized %12.4f  expert %12.4f  ratio %.4f\n", "total", syn, exp, syn/exp)
	return syn / exp
}

// printLayers prints the per-layer metrics as comment lines, sorted.
func printLayers(l map[string]float64) {
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# layer %-32s %.6g\n", k, l[k])
	}
}

// latencies lists the successful outcomes' latencies in seconds.
func latencies(os []outcome) []float64 {
	var xs []float64
	for _, o := range os {
		if o.err == nil {
			xs = append(xs, o.latency.Seconds())
		}
	}
	return xs
}

// counterDelta is after - before for every counter in after.
func counterDelta(before, after map[string]int64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = float64(v - before[k])
	}
	return d
}

// registryLayers derives the per-layer metrics that the program's own
// counters carry, per completed trace (n) where they are totals.
func registryLayers(d map[string]float64, n float64, p procDelta) map[string]float64 {
	per := func(k string) float64 { return d[k] / n }
	handlers := d["core.handlers_scored"]
	return map[string]float64{
		"enum.candidates":                per("enum.candidates"),
		"enum.sketches":                  per("enum.sketches"),
		"enum.yield":                     ratio(d["enum.sketches"], d["enum.candidates"]),
		"enum.scan_budget_exhausted":     per("enum.scan_budget_exhausted"),
		"dsl.progs_compiled":             per("dsl.progs_compiled"),
		"core.worker_busy_s":             per("core.worker_busy_ns") / 1e9,
		"core.handlers_scored":           handlers / n,
		"core.handlers_per_cpu_s":        ratio(handlers, p.cpu),
		"core.cache_hit_ratio":           ratio(d["core.score_cache_hits"], d["core.score_cache_hits"]+d["core.score_cache_misses"]),
		"core.funnel_full_ratio":         ratio(d["core.funnel_fully_scored"], d["core.funnel_enumerated"]),
		"replay.instrs_executed":         per("replay.instrs_executed"),
		"replay.lane_occupancy":          ratio(d["replay.lanes_filled"], d["replay.batches_executed"]*replay.Lanes),
		"replay.prologue_hit_ratio":      ratio(d["replay.prologue_hits"], d["replay.prologue_hits"]+d["replay.prologue_misses"]),
		"dist.dtw_cells":                 per("dist.dtw_cells"),
		"dist.lb_prune_ratio":            ratio(d["dist.lb_prunes"], d["dist.dtw_calls"]),
		"corpus.program_cache_hit_ratio": ratio(d["corpus.program_cache_hits"], d["corpus.program_cache_hits"]+d["corpus.program_cache_misses"]),
		"corpus.sketches_shared":         per("corpus.sketches_shared"),
		"go.gc_cpu_s":                    p.gcCPU / n,
		"go.gc_cycles":                   p.gcCycles / n,
	}
}

// procs is the scoring parallelism every layer defaults to.
func procs() int { return runtime.GOMAXPROCS(0) }
