package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/trace"
)

// batchScenarios are the reno-family traces of one batch: three CCAs at
// four network settings.
var batchScenarios = grid([]string{"reno", "westwood", "scalable"}, []scenario{
	{rtt: 40 * time.Millisecond, mbps: 10},
	{rtt: 100 * time.Millisecond, mbps: 15},
	{rtt: 10 * time.Millisecond, mbps: 5},
	{rtt: 100 * time.Millisecond, mbps: 5},
})

// batchJobs is the batch's trace concurrency (abagnale -jobs).
const batchJobs = 2

// runBatch is the batch-reno-family workload: what `abagnale -dsl reno
// -dir traces/ -jobs 2` does, repeated until the time is up. Every batch
// analyzes its pcaps and builds its shared corpus from nothing.
func runBatch(cfg config) (*runResult, error) {
	ins, setup, err := setupInputs(cfg, cfg.pick(batchScenarios))
	if err != nil {
		return nil, err
	}
	d, err := dsl.Named("reno")
	if err != nil {
		return nil, err
	}
	r := &runResult{setupS: setup}
	var reg *obs.Registry
	if cfg.traced {
		reg = obs.New()
		observe(reg)
	}
	ctx := context.Background()
	opts := core.Options{DSL: d, Metric: dist.DTW{}, MaxHandlers: cfg.budget, Seed: searchSeed}
	var (
		analyze   float64
		segments  int
		makespans []float64
	)
	before := reg.CounterValues("")
	p0 := sampleProc()
	for b := 0; b == 0 || time.Since(p0.at) < cfg.dur; b++ {
		t0 := time.Now()
		x := trace.NewExtractor()
		jobs := make([]corpus.Job, len(ins))
		for i, in := range ins {
			tr, err := x.Analyze(bytes.NewReader(in.pcap))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			jobs[i] = corpus.Job{Name: in.name, Segments: tr.Split(minSegment)}
			segments += len(jobs[i].Segments)
		}
		analyze += time.Since(t0).Seconds()
		res, err := corpus.Run(ctx, jobs, corpus.RunOptions{Jobs: batchJobs, Core: opts, Obs: reg})
		if err != nil {
			return nil, err
		}
		makespans = append(makespans, time.Since(t0).Seconds())
		for i, t := range res.Traces {
			o := outcome{in: ins[i], handler: t.Handler, dist: t.Distance, latency: t.Duration, err: t.Err}
			if o.err == nil && t.Stats.Interrupted {
				o.err = fmt.Errorf("%s: search interrupted", ins[i].name)
			}
			r.outcomes = append(r.outcomes, o)
		}
	}
	r.proc = p0.to(sampleProc())
	r.wall = r.proc.wall
	// Like `abagnale -dir`, a batch hands over its handlers when it ends, so
	// every trace's time to handler is the batch's makespan.
	r.handlerP50 = median(makespans)
	if !cfg.traced {
		return r, nil
	}
	delta := counterDelta(before, reg.CounterValues(""))
	n := float64(len(r.outcomes))
	l := registryLayers(delta, n, r.proc)
	packets := 0
	for _, o := range r.outcomes {
		packets += o.in.packets
	}
	l["trace.analyze_s"] = analyze / n
	l["trace.packets"] = float64(packets) / n
	l["trace.segments"] = float64(segments) / n
	l["core.synthesize_s"] = reg.Report().Phases["core.synthesize"].TotalSec / n
	l["core.score_self_s"] = l["core.worker_busy_s"]
	l["core.util"] = ratio(l["core.worker_busy_s"]*n, r.wall*float64(cfg.procs))
	r.layers = l

	// The first trace against a standalone cold synthesis with the same
	// options: batch must equal cold.
	observe(nil)
	ref, _ := coldSynth(ctx, ins[0], cfg.budget, nil)
	// The batch reports handlers unsimplified; the CLI prints them
	// simplified.
	first := r.outcomes[0]
	if h, err := dsl.Parse(first.handler); err == nil {
		first.handler = dsl.Simplify(h).String()
	}
	r.checks = append(r.checks, sameAnswer("standalone cold vs batch", ref, first))
	return r, nil
}
