// Command abagnale runs the synthesis pipeline on collected pcap traces:
// it reverse-engineers a succinct cwnd-on-ACK handler expression whose
// simulated behavior matches the traces (the end-to-end flow of Figure 1).
//
// Usage:
//
//	abagnale -dsl vegas traces/*.pcap
//	abagnale -dsl reno -budget 50000 -metric dtw -seed 1 traces/reno-*.pcap
//	abagnale -dsl cubic -v -metrics-json run-report.json traces/cubic-*.pcap
//
// Without -dsl the tool requires -hint-cca to look up the family mapping,
// or defaults to the vegas DSL (the broadest).
//
// Batch mode (-dir or -glob) synthesizes one handler per pcap file
// instead of pooling all segments into a single search: the traces share
// one compiled sketch corpus and one CPU gate (at most -jobs traces in
// flight, never more scoring workers than cores overall), and the tool
// emits an aggregate JSON report — per-trace best handler, distance,
// timing, and the corpus cache counters — to -report (default stdout).
//
//	abagnale -dsl reno -dir traces/ -jobs 4 -report batch.json
//	abagnale -dsl reno -glob 'traces/cubic-*.pcap' -budget 20000
//
// Observability: -v streams live search progress to stderr, -events writes
// the span/metric stream as JSONL, -metrics-json writes the end-of-run
// report (counters, wall-clock per phase, per-iteration bucket ranks),
// -serve hosts the live observability server (/metrics, /healthz, /runs,
// /runs/{name}/funnel, /events, /flight, /debug/pprof), -trace-out exports
// a Perfetto/Chrome trace-event timeline, -explain prints the per-bucket
// convergence and pruning-funnel tables, -ledger dumps a deterministic
// sample of scored candidates as JSONL, -funnel writes the run's funnel
// report (the funneldiff input), -version prints build info, and
// -cpuprofile/-memprofile capture pprof profiles.
// SIGQUIT (ctrl-\) dumps the flight recorder to stderr without stopping
// the run; a failed search dumps its tail automatically.
//
// Daemon mode (-daemon) turns the process into the synthesis service:
// the versioned job API (/api/v1) is mounted on -serve's address next to
// the observability endpoints, -jobs sizes the worker pool, -snapshots
// persists warm corpora across restarts, and -dsl names corpora to
// prewarm. cmd/abagnaled is the standalone daemon with client
// subcommands; both run the same service.RunDaemon loop.
//
//	abagnale -daemon -serve :8080 -dsl reno -snapshots corpora/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
)

func main() {
	// A copy of this binary exec'd by -shard-workers detours into the
	// worker loop here, before any flag parsing.
	shard.MaybeRunWorker()
	var (
		dslName = flag.String("dsl", "", "sub-DSL to search (reno|cubic|delay|vegas)")
		hintCCA = flag.String("hint-cca", "", "pick the sub-DSL from this CCA's family")
		metric  = flag.String("metric", "dtw", "distance metric (dtw|euclidean|manhattan|frechet)")
		budget  = flag.Int("budget", 120000, "max concrete handlers to score")
		minSeg  = flag.Int("min-segment", 16, "minimum ACK samples per trace segment")
		seed    = flag.Int64("seed", 1, "random seed")
		dir     = flag.String("dir", "", "batch mode: synthesize one handler per *.pcap in this directory")
		glob    = flag.String("glob", "", "batch mode: synthesize one handler per file matching this pattern")
		jobs    = flag.Int("jobs", runtime.GOMAXPROCS(0), "batch mode: concurrent trace jobs")
		report  = flag.String("report", "", "batch mode: write the aggregate JSON report here (default stdout)")
		explain = flag.Bool("explain", false, "print the per-bucket convergence and pruning-funnel tables after the search")
		ledger  = flag.String("ledger", "", "write a deterministic sampled candidate ledger (JSONL) here")
		funnel  = flag.String("funnel", "", "write the run's pruning-funnel report (JSON, funneldiff input) here")
		daemon  = flag.Bool("daemon", false, "run as a synthesis daemon (job API on -serve's address; see abagnaled)")
		snaps   = flag.String("snapshots", "", "daemon mode: corpus snapshot directory (empty disables warm restarts)")

		shardWorkers = flag.Int("shard-workers", 0, "shard scoring across N spawned local worker processes")
		shardWait    = flag.Int("shard-wait", 0, "also wait for N joined workers (abagnaled -worker -join) before searching")
		shardListen  = flag.String("shard-listen", "", "shard coordinator listen address (default 127.0.0.1, ephemeral port)")
		shardSnaps   = flag.String("shard-snapshots", "", "shared corpus snapshot dir shard workers warm-start from")
		shardPrewarm = flag.Bool("shard-prewarm", false, "materialize and snapshot the sketch space into -shard-snapshots before spawning workers")
		shardBeat    = flag.Duration("shard-heartbeat", 0, "worker heartbeat cadence (default 500ms; negative disables)")
		shardPM      = flag.String("shard-postmortems", "", "write a JSONL postmortem bundle per worker lost mid-run into this directory")
		fleet        = flag.Bool("fleet", false, "print the per-worker fleet telemetry table after a sharded run")
		bucketCap    = flag.Int("bucket-cap", 0, "max sketches materialized per bucket (default: core's)")
		scanBudget   = flag.Int("scan-budget", 0, "max candidate constructions per bucket enumeration (default: core's)")
	)
	c := cli.Register("abagnale", flag.CommandLine)
	flag.Parse()
	batch := *dir != "" || *glob != ""
	if *daemon {
		// Daemon mode owns the observability server (the job API rides the
		// same mux), so it bypasses the common Setup entirely.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := service.RunDaemon(ctx, service.Config{
			Workers:     *jobs,
			SnapshotDir: *snaps,
		}, service.DaemonOptions{
			Listen:  c.Obs.Serve,
			Prewarm: service.ParsePrewarm(*dslName),
			Verbose: c.Obs.Verbose,
		})
		if err != nil {
			c.Fatal(err)
		}
		return
	}
	if flag.NArg() == 0 && !batch && !c.ShowVersion() {
		c.UsageExit("no pcap files given")
	}
	reg, done := c.Setup()
	// Route the process-wide replay/metric/VM instruments to this run.
	replay.Observe(reg)
	dist.Observe(reg)
	dsl.Observe(reg)
	// SIGINT/SIGTERM cancel the search gracefully: the best handler found
	// so far is still printed and the run report (via done()) still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sh := shardFlags{
		workers: *shardWorkers, wait: *shardWait, listen: *shardListen,
		snaps: *shardSnaps, prewarm: *shardPrewarm,
		heartbeat: *shardBeat, postmortems: *shardPM, fleet: *fleet,
		bucketCap: *bucketCap, scanBudget: *scanBudget,
	}
	var runErr error
	if batch {
		if *ledger != "" || *funnel != "" {
			fmt.Fprintln(os.Stderr, "abagnale: -ledger/-funnel apply to single-trace runs; ignored in batch mode")
		}
		runErr = runBatch(ctx, *dslName, *hintCCA, *metric, *budget, *minSeg, *seed,
			*dir, *glob, *jobs, *report, *explain, sh, reg, flag.Args())
	} else {
		runErr = run(ctx, *dslName, *hintCCA, *metric, *budget, *minSeg, *seed,
			*explain, *ledger, *funnel, sh, reg, flag.Args())
	}
	if runErr != nil {
		// A failed search dumps the flight recorder's tail — the last thing
		// the pipeline was doing when it went wrong.
		if tail := reg.Flight().Tail(64); len(tail) > 0 {
			fmt.Fprintln(os.Stderr, "abagnale: flight recorder tail (newest last):")
			enc := json.NewEncoder(os.Stderr)
			for _, ev := range tail {
				_ = enc.Encode(ev)
			}
		}
	}
	c.Finish(runErr, done)
}

// shardFlags bundles the -shard-* and corpus-sizing flags.
type shardFlags struct {
	workers, wait         int
	listen, snaps         string
	prewarm               bool
	heartbeat             time.Duration
	postmortems           string
	fleet                 bool
	bucketCap, scanBudget int
}

// active reports whether the run is sharded at all (spawned or external
// workers).
func (s shardFlags) active() bool { return s.workers > 0 || s.wait > 0 }

// options renders the flags as shard.Options around the core config.
func (s shardFlags) options(o core.Options, reg *obs.Registry) shard.Options {
	return shard.Options{
		Workers:       s.workers,
		WaitWorkers:   s.wait,
		Listen:        s.listen,
		SnapshotDir:   s.snaps,
		Prewarm:       s.prewarm,
		Heartbeat:     s.heartbeat,
		PostmortemDir: s.postmortems,
		Core:          o,
		Obs:           reg,
	}
}

// printShardSummary writes the per-worker accounting to stderr (stdout is
// reserved for results and reports); with -fleet it also renders the
// cluster telemetry table.
func (s shardFlags) printShardSummary(rep *shard.Report) {
	for _, w := range rep.Workers {
		state := ""
		if w.Lost {
			state = "  [lost mid-run]"
		}
		fmt.Fprintf(os.Stderr, "shard: worker %d (pid %d): %d leases (%d stolen), %d handlers%s\n",
			w.ID, w.PID, w.Leases, w.Stolen, w.Handlers, state)
	}
	fmt.Fprintf(os.Stderr, "shard: %d leases issued, %d stolen, %d reissued\n",
		rep.Counters["shard.leases_issued"], rep.Counters["shard.leases_stolen"],
		rep.Counters["shard.leases_reissued"])
	if s.fleet {
		printFleet(rep)
	}
}

// printFleet renders the cluster snapshot as the per-worker telemetry
// table: the same data /cluster serves live, at end-of-run.
func printFleet(rep *shard.Report) {
	if rep.Cluster == nil {
		fmt.Fprintln(os.Stderr, "fleet: no cluster snapshot in report")
		return
	}
	fmt.Fprintln(os.Stderr, "\nfleet: per-worker telemetry")
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  WORKER\tSTATE\tLAST BEAT\tRTT\tLEASES\tSTOLEN\tREISSUED\tCANDIDATES\tCAND/S\tENUMERATION")
	for _, w := range rep.Cluster.Workers {
		state := "up"
		if w.Lost {
			state = "lost"
		} else if !w.Connected {
			state = "done"
		}
		beat := "never"
		if w.LastBeatSec >= 0 {
			beat = fmt.Sprintf("%.1fs ago", w.LastBeatSec)
		}
		fmt.Fprintf(tw, "  %02d (pid %d)\t%s\t%s\t%.2fms\t%d\t%d\t%d\t%d\t%.0f\t%s\n",
			w.ID, w.PID, state, beat, w.RTTMs, w.Leases, w.Stolen, w.Reissued,
			w.Handlers, w.CandidatesPerSec, w.Enumeration)
	}
	tw.Flush()
}

// pickDSL resolves the sub-DSL and metric from the flags.
func pickDSL(dslName, hintCCA, metricName string) (string, *dsl.DSL, dist.Metric, error) {
	if dslName == "" {
		if hintCCA != "" {
			dslName = expr.DSLHint(hintCCA)
		} else {
			dslName = "vegas"
		}
	}
	d, err := dsl.Named(dslName)
	if err != nil {
		return "", nil, nil, err
	}
	m, err := dist.ByName(metricName)
	if err != nil {
		return "", nil, nil, err
	}
	return dslName, d, m, nil
}

func run(ctx context.Context, dslName, hintCCA, metricName string, budget, minSeg int, seed int64, explain bool, ledgerPath, funnelPath string, sh shardFlags, reg *obs.Registry, files []string) error {
	dslName, d, m, err := pickDSL(dslName, hintCCA, metricName)
	if err != nil {
		return err
	}

	var segs []*trace.Segment
	asp := reg.StartSpan("abagnale.analyze")
	x := trace.NewExtractor()
	for _, f := range files {
		tr, err := x.AnalyzeFile(f)
		if err != nil {
			return err
		}
		ss := tr.Split(minSeg)
		fmt.Printf("%s: %d ACK samples, %d losses, %d segments\n",
			f, len(tr.Samples), len(tr.Losses), len(ss))
		segs = append(segs, ss...)
	}
	asp.End()
	if len(segs) == 0 {
		return fmt.Errorf("no usable trace segments (try lowering -min-segment)")
	}
	reg.Progressf("searching %s DSL over %d segments (budget %d handlers)", dslName, len(segs), budget)

	var led *replay.Ledger
	if ledgerPath != "" {
		led = replay.NewLedger(0, seed)
	}
	start := time.Now()
	copts := core.Options{
		DSL:         d,
		Metric:      m,
		MaxHandlers: budget,
		BucketCap:   sh.bucketCap,
		ScanBudget:  sh.scanBudget,
		Seed:        seed,
		Ledger:      led,
		Obs:         reg,
	}
	var res *core.Result
	if sh.active() {
		reg.Progressf("sharding across %d spawned workers (waiting for %d)", sh.workers, max(sh.wait, sh.workers))
		var srep *shard.Report
		res, srep, err = shard.Synthesize(ctx, segs, sh.options(copts, reg))
		if srep != nil {
			sh.printShardSummary(srep)
		}
	} else {
		res, err = core.Synthesize(ctx, segs, copts)
	}
	if err != nil {
		return err
	}
	if res.Stats.Interrupted {
		fmt.Println("\ninterrupted — reporting best handler found so far")
	}
	handler := dsl.Simplify(res.Handler)
	fmt.Printf("\nsynthesized handler (%s-DSL, %s distance, %v):\n  cwnd <- %s\n",
		dslName, metricName, time.Since(start).Round(time.Millisecond), handler)
	fmt.Printf("summed distance over %d segments: %.2f\n", len(segs), res.Distance)
	fmt.Printf("search: %d handlers from %d sketches across %d buckets, %d iterations\n",
		res.Stats.HandlersScored, res.Stats.SketchesScored,
		res.Stats.SpaceBuckets, len(res.Stats.Iterations))
	if res.Stats.BudgetExhausted {
		fmt.Println("note: handler budget exhausted; result is best-so-far (paper's timeout behavior)")
	}
	if explain {
		fmt.Println("\nbucket convergence:")
		printExplain(os.Stdout, res.Stats.Buckets)
		fmt.Println("\npruning funnel:")
		printFunnel(os.Stdout, res.Stats)
	}
	if led != nil {
		if err := writeLedger(ledgerPath, led); err != nil {
			return err
		}
		fmt.Printf("candidate ledger: %d sampled candidates written to %s\n", led.Len(), ledgerPath)
	}
	if funnelPath != "" {
		rep := core.NewRunFunnelReport(firstOf(files), handler.String(), res.Distance, res.Stats)
		if err := writeJSONFile(funnelPath, rep); err != nil {
			return err
		}
		fmt.Printf("funnel report written to %s\n", funnelPath)
	}
	reg.Record("abagnale.result", map[string]any{
		"dsl":      dslName,
		"metric":   metricName,
		"handler":  handler.String(),
		"distance": res.Distance,
		"segments": len(segs),
	})
	return nil
}

// printExplain renders the per-bucket convergence table (-explain): how
// Algorithm 1 split the candidate budget across operator buckets, how hard
// the fast path pruned each one, and how each bucket's best distance moved
// per refinement iteration. Buckets arrive best-first from SearchStats.
func printExplain(w io.Writer, buckets []core.BucketStats) {
	if len(buckets) == 0 {
		fmt.Fprintln(w, "  (no bucket telemetry — search never completed an iteration)")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  rank\tops\titers\tsketches\thandlers\tpruned\tbest\ttrajectory")
	for i, b := range buckets {
		exhausted := ""
		if b.Exhausted {
			exhausted = "*"
		}
		fmt.Fprintf(tw, "  %d\t%s%s\t%d\t%d\t%d\t%.0f%%\t%s\t%s\n",
			i+1, b.Ops, exhausted, b.Iterations, b.SketchesTaken, b.HandlersScored,
			100*b.PruneRate(), fmtDist(b.Best), fmtTrajectory(b.Trajectory))
	}
	tw.Flush()
}

// printFunnel renders the run's aggregate pruning funnel (-explain): for
// each cascade stage, how many enumerated candidates settled there, their
// share, and the DTW-cell cost attribution — cells the stage computed and
// cells its settling saved relative to full passes.
func printFunnel(w io.Writer, stats core.SearchStats) {
	rep := stats.Funnel.Report()
	if rep.Enumerated == 0 {
		fmt.Fprintln(w, "  (no funnel telemetry — search never scored a candidate)")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  stage\tcandidates\tshare\tcells\tcells saved")
	for _, s := range rep.Stages {
		if s.Candidates == 0 && s.Cells == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\t%d\t%d\n",
			s.Stage, s.Candidates, 100*s.Share, s.Cells, s.CellsSaved)
	}
	fmt.Fprintf(tw, "  total\t%d\t\t\t\n", rep.Enumerated)
	tw.Flush()
	fmt.Fprintf(w, "  new bests: %d\n", rep.NewBest)
}

// writeLedger dumps the sampled candidate ledger as JSONL.
func writeLedger(path string, led *replay.Ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := led.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// firstOf labels a single-trace run by its first input file.
func firstOf(files []string) string {
	if len(files) == 0 {
		return ""
	}
	return files[0]
}

// fmtDist renders a distance compactly; +Inf (no viable candidate) as "-".
func fmtDist(d float64) string {
	if math.IsInf(d, 0) || math.IsNaN(d) {
		return "-"
	}
	return fmt.Sprintf("%.2f", d)
}

// fmtTrajectory joins the last few per-iteration bests into an arrow chain.
func fmtTrajectory(traj []float64) string {
	const keep = 6
	var b strings.Builder
	if len(traj) > keep {
		b.WriteString("… ")
		traj = traj[len(traj)-keep:]
	}
	for i, d := range traj {
		if i > 0 {
			b.WriteString(" > ")
		}
		b.WriteString(fmtDist(d))
	}
	return b.String()
}

// batchFiles collects the batch input set: -dir's *.pcap files, -glob's
// matches, and any positional arguments, sorted and deduplicated so the
// report order is stable.
func batchFiles(dir, glob string, args []string) ([]string, error) {
	var files []string
	if dir != "" {
		m, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	if glob != "" {
		m, err := filepath.Glob(glob)
		if err != nil {
			return nil, fmt.Errorf("bad -glob pattern: %w", err)
		}
		files = append(files, m...)
	}
	files = append(files, args...)
	sort.Strings(files)
	files = slicesCompact(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("batch mode: no pcap files matched")
	}
	return files, nil
}

// slicesCompact removes adjacent duplicates from a sorted slice.
func slicesCompact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// runBatch is the -dir/-glob mode: one synthesis per pcap, all sharing a
// compiled sketch corpus and one CPU gate, plus an aggregate JSON report.
func runBatch(ctx context.Context, dslName, hintCCA, metricName string, budget, minSeg int, seed int64, dir, glob string, jobs int, reportPath string, explain bool, sh shardFlags, reg *obs.Registry, args []string) error {
	dslName, d, m, err := pickDSL(dslName, hintCCA, metricName)
	if err != nil {
		return err
	}
	files, err := batchFiles(dir, glob, args)
	if err != nil {
		return err
	}

	// Extraction is I/O-bound and reuses one Extractor's buffers serially;
	// the parallelism budget is saved for scoring.
	asp := reg.StartSpan("abagnale.analyze")
	x := trace.NewExtractor()
	var batch []corpus.Job
	for _, f := range files {
		tr, err := x.AnalyzeFile(f)
		if err != nil {
			return err
		}
		segs := tr.Split(minSeg)
		fmt.Fprintf(os.Stderr, "%s: %d ACK samples, %d losses, %d segments\n",
			f, len(tr.Samples), len(tr.Losses), len(segs))
		if len(segs) == 0 {
			fmt.Fprintf(os.Stderr, "%s: skipped — no usable segments (try lowering -min-segment)\n", f)
			continue
		}
		batch = append(batch, corpus.Job{Name: f, Segments: segs})
	}
	asp.End()
	if len(batch) == 0 {
		return fmt.Errorf("batch mode: no usable trace segments in any input")
	}
	reg.Progressf("batch: %d traces, %d jobs, %s DSL (budget %d handlers each)",
		len(batch), jobs, dslName, budget)

	copts := core.Options{
		DSL:         d,
		Metric:      m,
		MaxHandlers: budget,
		BucketCap:   sh.bucketCap,
		ScanBudget:  sh.scanBudget,
		Seed:        seed,
	}
	var (
		res  *corpus.BatchResult
		srep *shard.Report
	)
	if sh.active() {
		reg.Progressf("sharding %d traces across %d spawned workers (waiting for %d)",
			len(batch), sh.workers, max(sh.wait, sh.workers))
		res, srep, err = shard.Run(ctx, batch, sh.options(copts, reg))
		if srep != nil {
			sh.printShardSummary(srep)
		}
	} else {
		res, err = corpus.Run(ctx, batch, corpus.RunOptions{
			Jobs: jobs,
			Core: copts,
			Obs:  reg,
		})
	}
	if err != nil {
		return err
	}
	for _, t := range res.Traces {
		if t.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, t.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: cwnd <- %s  (distance %.2f, %v)\n",
			t.Name, t.Handler, t.Distance, t.Duration.Round(time.Millisecond))
		if explain {
			// The table goes to stderr with the other per-trace chatter so
			// stdout stays reserved for the JSON report.
			fmt.Fprintf(os.Stderr, "%s: bucket convergence:\n", t.Name)
			printExplain(os.Stderr, t.Stats.Buckets)
			fmt.Fprintf(os.Stderr, "%s: pruning funnel:\n", t.Name)
			printFunnel(os.Stderr, t.Stats)
		}
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr, "interrupted — per-trace rows hold best-so-far")
	}

	rep := res.Report(jobs)
	if srep != nil {
		rep.Shard = srep
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if reportPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(reportPath, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "batch report written to %s (%d traces, %.1fs wall)\n",
		reportPath, len(rep.Traces), rep.WallSec)
	return nil
}
