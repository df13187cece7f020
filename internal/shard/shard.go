package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Options configures a sharded run.
type Options struct {
	// Workers is how many local worker processes to spawn (self-exec).
	// 0 spawns none — the run then waits for WaitWorkers external joins
	// (abagnaled -worker -join).
	Workers int
	// WaitWorkers is how many joined workers to wait for before searching.
	// Default: Workers (when spawning) or 1.
	WaitWorkers int
	// Listen is the coordinator's address. Default 127.0.0.1:0 (local
	// ephemeral); bind a routable address for multi-machine fan-out.
	Listen string
	// SnapshotDir, when set, is the shared corpus snapshot directory
	// workers warm-start from.
	SnapshotDir string
	// Prewarm materializes and snapshots the sketch space before spawning
	// workers, so every worker loads instead of enumerating. Requires
	// SnapshotDir.
	Prewarm bool
	// WorkerProcs pins each spawned worker's parallelism (GOMAXPROCS and
	// core Workers). 0 leaves workers at their own GOMAXPROCS.
	WorkerProcs int
	// LeaseDeadline, when positive, reissues leases not completed within
	// it (straggler backstop). Worker death always reissues.
	LeaseDeadline time.Duration
	// Heartbeat is the worker telemetry cadence (delta federation, clock
	// exchange, flight tails). 0 means the 500ms default; negative disables
	// heartbeats entirely (telemetry then rides lease completions only).
	Heartbeat time.Duration
	// PostmortemDir, when set, receives one JSONL bundle (meta header +
	// last flight tail) per worker lost mid-run.
	PostmortemDir string
	// Core is the synthesis configuration, exactly as a single-process
	// run would use it.
	Core core.Options
	// Obs receives coordinator instruments (shard.* counters, per-worker
	// board rows). Default: Core.Obs, else a private registry.
	Obs *obs.Registry
}

// resolve fills defaults and returns the obs registry to use.
func (o Options) resolve() (Options, *obs.Registry) {
	obsv := o.Obs
	if obsv == nil {
		obsv = o.Core.Obs
	}
	if obsv == nil {
		obsv = obs.New()
	}
	o.Obs = obsv
	if o.WaitWorkers == 0 {
		if o.Workers > 0 {
			o.WaitWorkers = o.Workers
		} else {
			o.WaitWorkers = 1
		}
	}
	if o.Core.BucketCap <= 0 {
		o.Core.BucketCap = core.DefaultBucketCap
	}
	if o.Core.ScanBudget <= 0 {
		o.Core.ScanBudget = core.DefaultScanBudget
	}
	return o, obsv
}

// wireOptions renders the job's core options for the wire.
func wireOptions(o core.Options) WireOptions {
	wo := WireOptions{
		InitialSamples:  o.InitialSamples,
		InitialKeep:     o.InitialKeep,
		InitialSegments: o.InitialSegments,
		MaxCompletions:  o.MaxCompletions,
		MaxHandlers:     o.MaxHandlers,
		BucketCap:       o.BucketCap,
		ScanBudget:      o.ScanBudget,
		RandomSegments:  o.RandomSegments,
		NoBucketPruning: o.NoBucketPruning,
		ExactScoring:    o.ExactScoring,
		GreedyPruning:   o.GreedyPruning,
		Seed:            o.Seed,
	}
	if o.Ledger != nil {
		wo.Ledger = true
		wo.LedgerCap, wo.LedgerSeed = o.Ledger.Config()
	}
	return wo
}

// metricName renders the metric for the wire (nil is the DTW default).
func metricName(o core.Options) string {
	if o.Metric == nil {
		return "dtw"
	}
	return o.Metric.Name()
}

// cluster is a started coordinator + spawned local workers.
type cluster struct {
	co   *Coordinator
	obsv *obs.Registry
}

// startCluster brings up the coordinator, optionally prewarms the shared
// snapshot dir, spawns local workers, and waits for the quorum.
func startCluster(ctx context.Context, o Options, obsv *obs.Registry) (*cluster, error) {
	if o.Prewarm {
		if o.SnapshotDir == "" {
			return nil, errors.New("shard: Prewarm requires SnapshotDir")
		}
		reg := corpus.NewRegistry(o.SnapshotDir, obsv)
		_, err := reg.Prewarm(ctx, corpus.Options{
			DSL:        o.Core.DSL,
			BucketCap:  o.Core.BucketCap,
			ScanBudget: o.Core.ScanBudget,
		}, 0)
		reg.Close()
		if err != nil {
			return nil, fmt.Errorf("shard: prewarming snapshot dir: %w", err)
		}
	}
	co, err := NewCoordinator(o.Listen, obsv, o.LeaseDeadline)
	if err != nil {
		return nil, err
	}
	co.PostmortemDir = o.PostmortemDir
	if o.Workers > 0 {
		if _, err := SpawnWorkers(ctx, o.Workers, co.Addr(), o.SnapshotDir, o.WorkerProcs, o.Heartbeat); err != nil {
			co.Close()
			return nil, err
		}
	}
	if err := co.AwaitWorkers(ctx, o.WaitWorkers); err != nil {
		co.Close()
		return nil, err
	}
	return &cluster{co: co, obsv: obsv}, nil
}

// Synthesize runs one sharded synthesis: the coordinator executes
// Algorithm 1's outer loop in-process (core.Synthesize with a lease
// executor) while the cluster scores each iteration's buckets. In the
// default and ExactScoring modes the Result is bit-identical to a
// single-process core.Synthesize with o.Core; the Report carries
// per-worker accounting and the merged cross-worker telemetry.
func Synthesize(ctx context.Context, segs []*trace.Segment, o Options) (*core.Result, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, obsv := o.resolve()
	cl, err := startCluster(ctx, o, obsv)
	if err != nil {
		return nil, nil, err
	}
	defer cl.co.Close()

	name := o.Core.RunName
	if name == "" {
		name = "synthesize"
	}
	jm := &jobMsg{
		ID:       "job-1",
		Name:     name,
		DSL:      o.Core.DSL,
		Metric:   metricName(o.Core),
		Segments: segs,
		Opts:     wireOptions(o.Core),
	}
	j := cl.co.NewJob(jm.ID, jm, o.Core.Ledger)
	copts := o.Core
	copts.LeaseExec = j
	copts.Obs = obsv
	res, err := core.Synthesize(ctx, segs, copts)
	cl.co.EndJob(j)
	rep := cl.co.Report()
	if err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}

// Run executes a batch of trace jobs across the cluster as whole-trace
// leases — the coarse-grained mode where each worker runs entire
// syntheses and the coordinator only schedules, reissues, and merges.
// Results are deterministic per seed: a sharded batch answer equals
// corpus.Run's (workers share the same snapshot-warmed sketch space and
// every trace runs with the same options).
func Run(ctx context.Context, jobs []corpus.Job, o Options) (*corpus.BatchResult, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o, obsv := o.resolve()
	cl, err := startCluster(ctx, o, obsv)
	if err != nil {
		return nil, nil, err
	}
	defer cl.co.Close()

	start := time.Now()
	res := &corpus.BatchResult{Traces: make([]corpus.TraceResult, len(jobs))}
	type pend struct {
		i int
		j *job
		c chan outcomeErr
	}
	var pends []pend
	for i, jb := range jobs {
		jm := &jobMsg{
			ID:       fmt.Sprintf("job-%d", i+1),
			Name:     jb.Name,
			DSL:      o.Core.DSL,
			Metric:   metricName(o.Core),
			Segments: jb.Segments,
			Opts:     wireOptions(o.Core),
		}
		j := cl.co.NewJob(jm.ID, jm, nil)
		c := make(chan outcomeErr, 1)
		go func(j *job) {
			to, err := j.ExecTrace(ctx)
			c <- outcomeErr{to, err}
		}(j)
		pends = append(pends, pend{i: i, j: j, c: c})
	}
	for _, p := range pends {
		oe := <-p.c
		tr := corpus.TraceResult{Name: jobs[p.i].Name}
		switch {
		case oe.err != nil:
			tr.Err = oe.err
		case oe.to == nil:
			tr.Err = errors.New("shard: trace lease lost")
		default:
			tr.Handler = oe.to.Handler
			tr.Sketch = oe.to.Sketch
			tr.Distance = oe.to.Distance
			tr.Stats = oe.to.Stats
			tr.Duration = time.Duration(oe.to.DurationNS)
			if oe.to.Err != "" {
				tr.Err = errors.New(oe.to.Err)
			}
		}
		res.Traces[p.i] = tr
		cl.co.EndJob(p.j)
	}
	res.Wall = time.Since(start)
	res.Corpus = obsv.CounterValues("corpus.")
	res.Interrupted = ctx.Err() != nil
	for i := range res.Traces {
		res.Interrupted = res.Interrupted || res.Traces[i].Stats.Interrupted
	}
	return res, cl.co.Report(), nil
}

// outcomeErr pairs a whole-trace outcome with its transport error.
type outcomeErr struct {
	to  *traceOutcome
	err error
}
