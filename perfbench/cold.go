package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// coldScenarios are synthesized one at a time, each from scratch.
var coldScenarios = grid([]string{"cubic", "bic"}, []scenario{
	{rtt: 40 * time.Millisecond, mbps: 10},
	{rtt: 100 * time.Millisecond, mbps: 15},
	{rtt: 10 * time.Millisecond, mbps: 5},
})

// timedSource wraps a fresh corpus as the run's SketchSource and
// ProgramSource and times every call into it from outside. A corpus built
// for the run serves the same prefixes as core's per-run enumeration, so
// the search and its answer are unchanged.
type timedSource struct {
	c         *corpus.SketchCorpus
	takeNS    atomic.Int64
	compileNS atomic.Int64
}

func (t *timedSource) Buckets() []dsl.OpSet  { return t.c.Buckets() }
func (t *timedSource) Release(ops dsl.OpSet) { t.c.Release(ops) }

func (t *timedSource) Take(ops dsl.OpSet, n, capN, scanBudget int) ([]*dsl.Node, bool) {
	t0 := time.Now()
	s, ex := t.c.Take(ops, n, capN, scanBudget)
	t.takeNS.Add(int64(time.Since(t0)))
	return s, ex
}

func (t *timedSource) Program(key string, sk *dsl.Node) *dsl.Program {
	t0 := time.Now()
	p := t.c.Program(key, sk)
	t.compileNS.Add(int64(time.Since(t0)))
	return p
}

// coldTimes is the per-layer time of one traced cold synthesis.
type coldTimes struct {
	analyze, synth, take, compile float64
	segments                      int
}

// coldSynth is what `abagnale -hint-cca <cca> -budget 20000 trace.pcap`
// does once it reads the file: analyze, split, search, simplify. With reg
// set the search runs over a timed fresh corpus and reports into reg.
func coldSynth(ctx context.Context, in *input, budget int, reg *obs.Registry) (outcome, coldTimes) {
	o := outcome{in: in}
	var ct coldTimes
	t0 := time.Now()
	tr, err := trace.NewExtractor().Analyze(bytes.NewReader(in.pcap))
	if err != nil {
		o.err = fmt.Errorf("%s: %w", in.name, err)
		return o, ct
	}
	segs := tr.Split(minSegment)
	ct.segments = len(segs)
	ct.analyze = time.Since(t0).Seconds()
	d, err := dsl.Named(expr.DSLHint(in.cca))
	if err != nil {
		o.err = err
		return o, ct
	}
	opts := core.Options{DSL: d, Metric: dist.DTW{}, MaxHandlers: budget, Seed: searchSeed}
	var src *timedSource
	if reg != nil {
		c, err := corpus.New(corpus.Options{DSL: d, Obs: reg})
		if err != nil {
			o.err = err
			return o, ct
		}
		defer c.Close()
		src = &timedSource{c: c}
		opts.Sketches, opts.Programs, opts.Obs = src, src, reg
	}
	ts := time.Now()
	res, err := core.Synthesize(ctx, segs, opts)
	ct.synth = time.Since(ts).Seconds()
	if err != nil {
		o.err = fmt.Errorf("%s: %w", in.name, err)
		return o, ct
	}
	o.handler = dsl.Simplify(res.Handler).String()
	o.dist = res.Distance
	o.latency = time.Since(t0)
	if res.Stats.Interrupted {
		o.err = fmt.Errorf("%s: search interrupted", in.name)
	}
	if src != nil {
		ct.take = float64(src.takeNS.Load()) / 1e9
		ct.compile = float64(src.compileNS.Load()) / 1e9
	}
	return o, ct
}

// observe routes the process-wide replay, metric-kernel and VM counters to
// reg (nil turns them off).
func observe(reg *obs.Registry) {
	replay.Observe(reg)
	dist.Observe(reg)
	dsl.Observe(reg)
}

// runCold is the cold-cubic workload: a closed loop with one client that
// synthesizes the cubic-family traces in turn, each from nothing, until
// the time is up and every trace has been done once.
func runCold(cfg config) (*runResult, error) {
	ins, setup, err := setupInputs(cfg, cfg.pick(coldScenarios))
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
	var sum coldTimes
	var firstTraced outcome
	before := reg.CounterValues("")
	p0 := sampleProc()
	for i := 0; i < len(ins) || time.Since(p0.at) < cfg.dur; i++ {
		o, ct := coldSynth(ctx, ins[i%len(ins)], cfg.budget, reg)
		r.outcomes = append(r.outcomes, o)
		sum.analyze += ct.analyze
		sum.synth += ct.synth
		sum.take += ct.take
		sum.compile += ct.compile
		sum.segments += ct.segments
		if i == 0 {
			firstTraced = o
		}
	}
	r.proc = p0.to(sampleProc())
	r.wall = r.proc.wall
	r.handlerP50 = median(latencies(r.outcomes))
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
	l["trace.analyze_s"] = sum.analyze / n
	l["trace.packets"] = float64(packets) / n
	l["trace.segments"] = float64(sum.segments) / n
	l["enum.take_s"] = sum.take / n
	l["dsl.compile_s"] = sum.compile / n
	l["core.synthesize_s"] = sum.synth / n
	busy := l["core.worker_busy_s"]
	l["core.score_self_s"] = busy - l["enum.take_s"] - l["dsl.compile_s"]
	l["core.util"] = ratio(busy, l["core.synthesize_s"]*float64(cfg.procs))
	r.layers = l
	// The parts timed from outside must fit inside the busy time core
	// measures itself, and busy time inside the run's worker capacity.
	r.checks = append(r.checks, reconcile(sum.take+sum.compile, busy*n, sum.synth*float64(cfg.procs)))

	// Standalone reference: the first trace again through the plain CLI
	// path, instruments off, then once more traced with a fresh registry.
	// Both answers must match the traced run's bit for bit, and the time
	// ratio of the adjacent pair is the tracing overhead.
	observe(nil)
	ref, _ := coldSynth(ctx, ins[0], cfg.budget, nil)
	pairReg := obs.New()
	observe(pairReg)
	traced, _ := coldSynth(ctx, ins[0], cfg.budget, pairReg)
	observe(nil)
	r.checks = append(r.checks,
		sameAnswer("standalone cold vs traced cold", ref, firstTraced),
		sameAnswer("standalone cold vs traced cold", ref, traced))
	l["bench.trace_overhead"] = ratio(traced.latency.Seconds(), ref.latency.Seconds())
	return r, nil
}

// reconcileTol is the stated tolerance of the per-layer time split.
const reconcileTol = 0.05

// reconcile checks that timed parts (take + compile) do not exceed the
// busy time they run inside, and busy time not the worker capacity.
func reconcile(parts, busy, capacity float64) error {
	if parts > busy*(1+reconcileTol) {
		return fmt.Errorf("reconcile: take+compile %.3fs exceeds worker busy %.3fs by more than %.0f%%", parts, busy, reconcileTol*100)
	}
	if busy > capacity*(1+reconcileTol) {
		return fmt.Errorf("reconcile: worker busy %.3fs exceeds synthesize x workers %.3fs by more than %.0f%%", busy, capacity, reconcileTol*100)
	}
	return nil
}

// sameAnswer demands identical handler text and distance bits.
func sameAnswer(what string, a, b outcome) error {
	if a.err != nil {
		return fmt.Errorf("%s: %w", what, a.err)
	}
	if b.err != nil {
		return fmt.Errorf("%s: %w", what, b.err)
	}
	if a.handler != b.handler || math.Float64bits(a.dist) != math.Float64bits(b.dist) {
		return fmt.Errorf("%s on %s: %q (%v) vs %q (%v)", what, a.in.name, a.handler, a.dist, b.handler, b.dist)
	}
	return nil
}
