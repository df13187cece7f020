// Package core implements Abagnale's synthesis pipeline — the paper's
// primary contribution. Given trace segments of an unknown CCA and a
// curated sub-DSL, it searches the space of candidate cwnd-on-ACK handlers
// for the one whose replayed CWND series minimizes the distance to the
// observed series.
//
// The search follows Algorithm 1: the sketch space is partitioned into
// buckets keyed by operator subset; each refinement iteration samples N
// sketches per bucket, concretizes their constants from a sampled pool
// (§4.2), scores the resulting handlers (§4.3), keeps the top-k buckets,
// then multiplies N by 8, halves k, and adds trace segments — until one
// bucket remains (exhausted) or every bucket is exhausted. The best handler
// seen is retained throughout, so interrupting the loop (budget exhaustion)
// still returns a result.
package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Observability instruments emitted when Options.Obs is set:
//
//	counters   core.handlers_scored, core.sketches_scored,
//	           core.completions_sampled, core.worker_busy_ns,
//	           core.score_cache_hits, core.score_cache_misses
//	gauges     core.best_distance (trajectory, also a metric event),
//	           core.workers
//	phases     core.synthesize, core.iteration, core.select_segments,
//	           core.score, core.final_distance
//	records    core.iteration — one IterationReport per refinement
//	           iteration (bucket ranking included)
//
// Worker utilization for the scoring phase is
// worker_busy_ns / (workers * phases["core.score"].TotalSec * 1e9).

// Options configures a synthesis run. Zero values select the paper's
// defaults.
type Options struct {
	// DSL is the curated sub-DSL to search (required).
	DSL *dsl.DSL
	// Metric scores candidate handlers; nil means DTW (§4.3).
	Metric dist.Metric
	// InitialSamples is N in Algorithm 1: sketches sampled per bucket in
	// the first iteration. Default 16.
	InitialSamples int
	// InitialKeep is k in Algorithm 1: buckets retained after the first
	// iteration. Default 5.
	InitialKeep int
	// InitialSegments is how many trace segments score iteration 1;
	// every iteration adds two more (§4.4). Default 4.
	InitialSegments int
	// MaxCompletions bounds the constant assignments sampled per sketch
	// (§4.2). Default 24.
	MaxCompletions int
	// MaxHandlers bounds the total concrete handlers scored — the
	// stand-in for the paper's wall-clock timeout. Default 300000.
	MaxHandlers int
	// BucketCap bounds how many sketches may be drawn from one bucket
	// (guards exhaustive passes over enormous buckets). Default 20000.
	BucketCap int
	// ScanBudget is the scan limit of each bucket's enumerator over its
	// lifetime, in candidates as enum.Enumerator.BucketLimited defines
	// them — the in-process analogue of the paper's wall-clock timeout.
	// Default 100000.
	ScanBudget int
	// Workers sets scoring parallelism. Default GOMAXPROCS.
	Workers int
	// RandomSegments disables the paper's diverse segment selection
	// (§3.2) in favor of uniform random sampling — an ablation knob.
	RandomSegments bool
	// NoBucketPruning disables Algorithm 1's only-top-k refinement: all
	// buckets stay live every iteration — an ablation knob quantifying
	// what bucket prioritization buys.
	NoBucketPruning bool
	// ExactScoring disables the threshold-aware fast path (lower-bound
	// pruning, early abandoning, and the canonical-handler memo cache):
	// every candidate pays the full metric computation. The fast path is
	// exact — for a fixed seed both modes return the identical result —
	// so this is a debugging/differential-testing knob, not an accuracy
	// one.
	ExactScoring bool
	// GreedyPruning additionally lets scoring workers use the global
	// best-so-far distance (an atomic shared across buckets) as their
	// cutoff instead of only bucket-local state. This prunes deeper but
	// the extra abandons depend on cross-bucket timing, so bucket
	// rankings — and therefore which handler wins — may differ between
	// runs of the same seed. Off by default to keep runs reproducible.
	GreedyPruning bool
	// Sketches, when set, supplies the run's sketch space — typically a
	// corpus.SketchCorpus shared by every trace of a batch, so the space
	// is enumerated, canonicalized and compiled once per DSL config
	// instead of once per run. Nil enumerates per run. A shared source
	// must be configured with this run's BucketCap/ScanBudget for results
	// to be identical to the per-run enumeration.
	Sketches SketchSource
	// Programs, when set, supplies compiled register programs to the
	// iteration scorers (replay.ProgramSource), sharing compilation
	// across runs. Nil compiles per scorer.
	Programs replay.ProgramSource
	// Ledger, when set, samples scored candidates into a deterministic
	// provenance ledger (sketch, completion constants, per-segment stage
	// outcomes, final distance — dumpable as JSONL). The sample is a pure
	// function of the candidate set, so a fixed Seed yields an identical
	// ledger regardless of worker scheduling. Candidates settled by the
	// memo cache are not re-offered; it never changes search behavior.
	Ledger *replay.Ledger
	// LeaseExec, when set, delegates each iteration's bucket scoring to an
	// external executor (internal/shard's coordinator): Algorithm 1's outer
	// loop — segment selection, ranking, top-k, budget, termination — stays
	// in-process and consumes the run's rand stream exactly as a local run
	// would, while the per-bucket scoring work is leased out. Per-bucket
	// scoring is deterministic, so results match the in-process path in the
	// default and ExactScoring modes. Sketches/Programs/Gate are unused on
	// the coordinating side when set (the executor's workers hold their
	// own).
	LeaseExec LeaseExecutor
	// Gate, when set, replaces the per-run Workers semaphore with a
	// shared concurrency bound: scoring workers and the run's own
	// goroutine each hold one slot while doing CPU work, so concurrent
	// runs sharing one Gate cannot oversubscribe the host.
	Gate Gate
	// Seed drives all sampling; runs are reproducible.
	Seed int64
	// RunName labels this run on the registry's live Board (the /runs
	// view of a -serve'd process). Empty uses "synthesize". The batch
	// engine sets it to the trace name so /runs shows per-trace state.
	RunName string
	// Obs receives the run's metrics, spans, per-iteration records and
	// progress stream. Nil disables instrumentation at near-zero cost
	// (nil-receiver no-ops); it never changes search behavior.
	Obs *obs.Registry

	// lanes overrides how many completions scoreSketch packs into one
	// ScoreBatchDetail call (0 means replay.Lanes). Only core's tests set
	// it: width 1 is the one-lane run the batched search is pinned against.
	lanes int
}

func (o Options) withDefaults() Options {
	if o.Metric == nil {
		o.Metric = dist.DTW{}
	}
	if o.InitialSamples == 0 {
		o.InitialSamples = 16
	}
	if o.InitialKeep == 0 {
		o.InitialKeep = 5
	}
	if o.InitialSegments == 0 {
		o.InitialSegments = 4
	}
	if o.MaxCompletions == 0 {
		o.MaxCompletions = 24
	}
	if o.MaxHandlers == 0 {
		o.MaxHandlers = 300000
	}
	if o.BucketCap == 0 {
		o.BucketCap = DefaultBucketCap
	}
	if o.ScanBudget == 0 {
		o.ScanBudget = DefaultScanBudget
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// BucketRank records one bucket's score in one iteration, for the search
// accuracy analysis of §6.2 (Table 4).
type BucketRank struct {
	// Ops is the bucket key.
	Ops dsl.OpSet
	// Score is the bucket's best sampled handler distance.
	Score float64
}

// IterationStats describes one refinement iteration.
type IterationStats struct {
	// Index is the 1-based iteration number.
	Index int
	// SamplesPerBucket is N for this iteration.
	SamplesPerBucket int
	// Segments is how many trace segments scored this iteration.
	Segments int
	// HandlersScored counts concrete handlers evaluated this iteration.
	HandlersScored int
	// Ranking is every live bucket ordered best-first.
	Ranking []BucketRank
	// Kept is how many buckets advanced to the next iteration.
	Kept int
}

// RankOf returns the 1-based rank of the bucket containing ops, or 0 when
// that bucket was not in this iteration's ranking.
func (s *IterationStats) RankOf(ops dsl.OpSet) int {
	for i, r := range s.Ranking {
		if r.Ops == ops {
			return i + 1
		}
	}
	return 0
}

// IterationReport is the JSON shape of one "core.iteration" obs record. It
// is derived from IterationStats by iterationReport — the single source of
// truth for per-iteration accounting is the IterationStats value appended
// to SearchStats; the run report re-renders that same value rather than
// keeping parallel books.
type IterationReport struct {
	Index            int                `json:"index"`
	SamplesPerBucket int                `json:"samples_per_bucket"`
	Segments         int                `json:"segments"`
	HandlersScored   int                `json:"handlers_scored"`
	Kept             int                `json:"kept"`
	BestDistance     ReportFloat        `json:"best_distance"`
	Ranking          []BucketRankReport `json:"ranking"`
}

// BucketRankReport is one ranked bucket in an IterationReport, with the
// operator set rendered readably.
type BucketRankReport struct {
	Ops   string      `json:"ops"`
	Score ReportFloat `json:"score"`
}

// ReportFloat is a float64 that marshals non-finite values as JSON null.
// Bucket scores and the best distance are +Inf until a bucket scores its
// first viable handler — reachable in a report when a run is cancelled
// during its first iteration — and encoding/json rejects non-finite
// float64s outright, which would silently lose the whole report.
type ReportFloat float64

// MarshalJSON renders NaN/±Inf as null and everything else as a number.
func (f ReportFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// iterationReport renders an IterationStats for the obs record stream.
func iterationReport(it IterationStats, best float64) IterationReport {
	rep := IterationReport{
		Index:            it.Index,
		SamplesPerBucket: it.SamplesPerBucket,
		Segments:         it.Segments,
		HandlersScored:   it.HandlersScored,
		Kept:             it.Kept,
		BestDistance:     ReportFloat(best),
		Ranking:          make([]BucketRankReport, len(it.Ranking)),
	}
	for i, r := range it.Ranking {
		rep.Ranking[i] = BucketRankReport{Ops: r.Ops.String(), Score: ReportFloat(r.Score)}
	}
	return rep
}

// SearchStats aggregates a run's exploration record (§6.1).
type SearchStats struct {
	// SpaceBuckets is the number of non-empty buckets at the start.
	SpaceBuckets int
	// Iterations holds per-iteration detail.
	Iterations []IterationStats
	// Buckets holds per-bucket search telemetry, best-first — the
	// bucket-level story of Algorithm 1's convergence (-explain).
	Buckets []BucketStats
	// HandlersScored is the total number of concrete handlers evaluated.
	HandlersScored int
	// SketchesScored is the total number of sketches sampled.
	SketchesScored int
	// Funnel aggregates every bucket's elimination funnel: where the
	// run's enumerated candidates settled and what each cascade stage
	// cost in DTW cells.
	Funnel Funnel
	// BudgetExhausted reports whether MaxHandlers stopped the loop early.
	BudgetExhausted bool
	// Interrupted reports that context cancellation stopped the loop;
	// the Result still carries the best handler seen up to that point.
	Interrupted bool
}

// Merge folds another run's (or shard's) search telemetry in: funnels and
// counters sum, per-bucket rows combine by operator set, flags OR. Merge
// is associative and commutative over every field it touches, so sharded
// workers can combine partial reports in any grouping or order (up to the
// ordering of equal-Best buckets). Per-iteration detail (Iterations) is
// inherently per-shard and is left untouched on the receiver.
func (s *SearchStats) Merge(o SearchStats) {
	s.SpaceBuckets += o.SpaceBuckets
	s.HandlersScored += o.HandlersScored
	s.SketchesScored += o.SketchesScored
	s.BudgetExhausted = s.BudgetExhausted || o.BudgetExhausted
	s.Interrupted = s.Interrupted || o.Interrupted
	s.Funnel.Merge(o.Funnel)
	byOps := make(map[dsl.OpSet]int, len(s.Buckets))
	for i := range s.Buckets {
		byOps[s.Buckets[i].Ops] = i
	}
	for _, ob := range o.Buckets {
		if i, ok := byOps[ob.Ops]; ok {
			s.Buckets[i].merge(ob)
			continue
		}
		byOps[ob.Ops] = len(s.Buckets)
		ob.Trajectory = append([]float64(nil), ob.Trajectory...)
		s.Buckets = append(s.Buckets, ob)
	}
	sort.SliceStable(s.Buckets, func(i, j int) bool { return s.Buckets[i].Best < s.Buckets[j].Best })
}

// BucketStats is one bucket's cumulative search telemetry: how much of
// the candidate budget it consumed, how hard the threshold-aware fast
// path pruned it, and how its best distance moved per refinement
// iteration.
type BucketStats struct {
	// Ops is the bucket key.
	Ops dsl.OpSet
	// Iterations is how many refinement iterations the bucket stayed
	// live (was sampled and ranked).
	Iterations int
	// SketchesTaken is the enumeration prefix length the bucket reached.
	SketchesTaken int
	// HandlersScored is the candidate budget the bucket spent.
	HandlersScored int
	// Pruned counts scored candidates settled inexactly — abandoned by
	// the lower-bound/early-abandon cascade (or a dominating cache
	// entry) before the full distance was computed. Always equals
	// Funnel.Pruned().
	Pruned int
	// Funnel breaks HandlersScored down by the cascade stage that
	// settled each candidate, with per-stage DTW-cell cost attribution.
	Funnel Funnel
	// Exhausted reports the bucket's enumeration completed (cap or scan
	// budget included).
	Exhausted bool
	// Best is the bucket's best sampled handler distance (+Inf when no
	// viable candidate scored).
	Best float64
	// Trajectory is Best after each iteration the bucket was live.
	Trajectory []float64
}

// PruneRate is Pruned/HandlersScored (0 when nothing was scored).
func (b *BucketStats) PruneRate() float64 {
	if b.HandlersScored == 0 {
		return 0
	}
	return float64(b.Pruned) / float64(b.HandlersScored)
}

// merge combines two shards' views of the same bucket: additive counters
// sum, prefix-shaped counters take the max (Take returns deterministic
// enumeration prefixes, so shards see nested prefixes), bests take the
// min, and trajectories merge element-wise by min with the shorter one
// padded by +Inf. Each operation is associative and commutative.
func (b *BucketStats) merge(o BucketStats) {
	b.Iterations = max(b.Iterations, o.Iterations)
	b.SketchesTaken = max(b.SketchesTaken, o.SketchesTaken)
	b.HandlersScored += o.HandlersScored
	b.Pruned += o.Pruned
	b.Exhausted = b.Exhausted || o.Exhausted
	if o.Best < b.Best {
		b.Best = o.Best
	}
	b.Funnel.Merge(o.Funnel)
	if len(o.Trajectory) > len(b.Trajectory) {
		b.Trajectory = append(b.Trajectory, o.Trajectory[len(b.Trajectory):]...)
	}
	for i := range b.Trajectory {
		if i < len(o.Trajectory) && o.Trajectory[i] < b.Trajectory[i] {
			b.Trajectory[i] = o.Trajectory[i]
		}
	}
}

// BucketReport is the JSON shape of one "core.bucket" obs record,
// derived from BucketStats.
type BucketReport struct {
	Ops        string        `json:"ops"`
	Iterations int           `json:"iterations"`
	Sketches   int           `json:"sketches"`
	Handlers   int           `json:"handlers"`
	Pruned     int           `json:"pruned"`
	PruneRate  float64       `json:"prune_rate"`
	Exhausted  bool          `json:"exhausted"`
	Best       ReportFloat   `json:"best"`
	Trajectory []ReportFloat `json:"trajectory"`
}

// BestImprovedReport is the JSON shape of a "core.best_improved" obs
// record, emitted whenever the global best distance improves — rendered
// as an instant event (annotated with the producing bucket) on exported
// trace-event timelines.
type BestImprovedReport struct {
	Bucket   string      `json:"bucket"`
	Distance ReportFloat `json:"distance"`
	Handler  string      `json:"handler"`
}

// bucketReport renders a BucketStats for the obs record stream.
func bucketReport(b BucketStats) BucketReport {
	rep := BucketReport{
		Ops:        b.Ops.String(),
		Iterations: b.Iterations,
		Sketches:   b.SketchesTaken,
		Handlers:   b.HandlersScored,
		Pruned:     b.Pruned,
		PruneRate:  b.PruneRate(),
		Exhausted:  b.Exhausted,
		Best:       ReportFloat(b.Best),
		Trajectory: make([]ReportFloat, len(b.Trajectory)),
	}
	for i, d := range b.Trajectory {
		rep.Trajectory[i] = ReportFloat(d)
	}
	return rep
}

// Result is a completed synthesis.
type Result struct {
	// Handler is the best concrete handler found.
	Handler *dsl.Node
	// Sketch is the sketch the handler was concretized from.
	Sketch *dsl.Node
	// Distance is the handler's summed distance over all input segments
	// (comparable to Table 2's per-CCA values).
	Distance float64
	// Stats records the search's progress.
	Stats SearchStats
}

// Synthesize runs the pipeline over the given trace segments. The context
// is checked between iterations and inside the scoring workers: on
// cancellation the search winds down gracefully and still returns the
// best-so-far Result (with Stats.Interrupted set) when one exists, or
// ctx.Err() when nothing viable was found yet.
func Synthesize(ctx context.Context, segs []*trace.Segment, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if len(segs) == 0 {
		return nil, errors.New("core: no trace segments")
	}
	if opts.RunName == "" {
		if name, ok := RunNameFromContext(ctx); ok {
			opts.RunName = name
		}
	}
	run := &runState{
		ctx:    ctx,
		opts:   opts,
		segs:   segs,
		segIdx: make(map[*trace.Segment]int, len(segs)),
		rng:    rand.New(rand.NewSource(opts.Seed)),
		cache:  newScoreCache(0),
		obsv:   opts.Obs,
	}
	for i, s := range segs {
		run.segIdx[s] = i
	}
	// Hot-path handles are resolved once; each is a nil no-op when
	// observability is off.
	run.cHandlers = opts.Obs.Counter("core.handlers_scored")
	run.cSketches = opts.Obs.Counter("core.sketches_scored")
	run.cCompletions = opts.Obs.Counter("core.completions_sampled")
	run.cBusyNS = opts.Obs.Counter("core.worker_busy_ns")
	run.cCacheHits = opts.Obs.Counter("core.score_cache_hits")
	run.cCacheMisses = opts.Obs.Counter("core.score_cache_misses")
	run.cFunnelEnum = opts.Obs.Counter("core.funnel_enumerated")
	run.cFunnelNew = opts.Obs.Counter("core.funnel_new_best")
	for i := FunnelStage(0); i < NumFunnelStages; i++ {
		run.cFunnel[i] = opts.Obs.Counter(funnelCounterName(i))
	}
	run.hScore = opts.Obs.Histogram("core.score_handler_seconds")
	opts.Obs.Gauge("core.workers").Set(float64(opts.Workers))
	return run.run()
}

// runState carries one synthesis run.
type runState struct {
	ctx    context.Context
	opts   Options
	segs   []*trace.Segment
	segIdx map[*trace.Segment]int
	rng    *rand.Rand

	stats   SearchStats
	scored  int // handlers scored so far (budget)
	best    scoredHandler
	buckets []*bucket

	cache      *scoreCache
	atomicBest atomic.Uint64 // Float64bits of best.distance, for GreedyPruning readers

	src     SketchSource
	gate    Gate
	holding bool // this goroutine holds a slot of an external Gate

	live *obs.Run // this run's live Board entry (nil no-ops)

	runName string

	obsv         *obs.Registry
	cHandlers    *obs.Counter
	cSketches    *obs.Counter
	cCompletions *obs.Counter
	cBusyNS      *obs.Counter
	cCacheHits   *obs.Counter
	cCacheMisses *obs.Counter
	cFunnelEnum  *obs.Counter
	cFunnelNew   *obs.Counter
	cFunnel      [NumFunnelStages]*obs.Counter
	hScore       *obs.Histogram
}

// loadBest and storeBest shuttle the global best distance through the
// atomic (stored as IEEE bits; the value only ever decreases).
func (r *runState) loadBest() float64   { return math.Float64frombits(r.atomicBest.Load()) }
func (r *runState) storeBest(d float64) { r.atomicBest.Store(math.Float64bits(d)) }

// scoredHandler is a candidate with its score at evaluation time.
type scoredHandler struct {
	handler  *dsl.Node
	sketch   *dsl.Node
	distance float64
}

// bucket is one partition of the sketch space as one run sees it: the key,
// the latest Take result, and the bucket's best sampled handler. The sketch
// enumeration itself lives in the run's SketchSource.
type bucket struct {
	ops       dsl.OpSet
	sketches  []*dsl.Node
	taken     int // enumeration prefix length of the latest Take (remote leases carry no sketch slice)
	exhausted bool
	score     float64
	best      scoredHandler

	// Search telemetry (SearchStats.Buckets / the -explain table).
	// handlers/pruned/funnel are written by the bucket's own scoring
	// worker, iters/traj by the coordinator between iterations.
	handlers int
	pruned   int
	funnel   Funnel
	iters    int
	traj     []float64
}

// run executes Algorithm 1.
func (r *runState) run() (*Result, error) {
	root := r.obsv.StartSpan("core.synthesize")
	defer root.End()

	name := r.opts.RunName
	if name == "" {
		name = "synthesize"
	}
	r.runName = name
	r.live = r.obsv.Board().Start(name, int64(r.opts.MaxHandlers))
	r.live.SetPhase("enumerate")
	r.best.distance = math.Inf(1)
	r.storeBest(math.Inf(1))
	// Publish an (empty) funnel up front so /runs/{name}/funnel resolves
	// as soon as the run is visible, not only after the first iteration.
	r.live.SetFunnel(r.funnelReport())

	r.src = r.opts.Sketches
	if r.src == nil {
		es := newEnumSource(r.opts.DSL, r.obsv)
		r.src = es
		defer es.Close()
	}
	if r.opts.Gate != nil {
		// Gated run: hold a slot whenever this goroutine does CPU work,
		// yielding it while blocked on the scoring workers (scoreBuckets).
		r.gate = r.opts.Gate
		if !r.gate.Acquire(r.ctx) {
			return nil, r.ctx.Err()
		}
		r.holding = true
		defer func() {
			if r.holding {
				r.gate.Release()
			}
		}()
	} else {
		r.gate = NewGate(r.opts.Workers)
	}
	for _, ops := range r.src.Buckets() {
		r.buckets = append(r.buckets, &bucket{ops: ops, score: math.Inf(1)})
	}

	n := r.opts.InitialSamples
	k := r.opts.InitialKeep
	nseg := r.opts.InitialSegments
	iterIdx := 0

	live := r.buckets
	for {
		iterIdx++
		r.live.SetIteration(iterIdx)
		r.live.SetPhase("select_segments")
		isp := root.Child("core.iteration")
		ssp := isp.Child("core.select_segments")
		var segs []*trace.Segment
		if r.opts.RandomSegments {
			segs = randomSegments(r.segs, nseg, r.rng)
		} else {
			segs = trace.SelectDiverse(r.segs, nseg, r.opts.Metric, r.rng)
		}
		setID := r.segmentSetID(segs)
		ssp.End()

		r.live.SetPhase("score")
		scsp := isp.Child("core.score")
		var handlers int
		if r.opts.LeaseExec != nil {
			handlers = r.execLeased(iterIdx, n, live, segs, setID)
		} else {
			scorer := replay.NewScorer(segs, r.opts.Metric).WithPrograms(r.opts.Programs)
			if r.opts.Ledger != nil {
				// The segment-set fingerprint doubles as the ledger round
				// tag: re-scoring a candidate in a later iteration
				// (different segments) is a distinct provenance event.
				scorer.WithLedger(r.opts.Ledger, setID)
			}
			handlers = r.scoreBuckets(live, n, scorer, setID, scsp)
		}
		scsp.End()
		r.live.SetPhase("rank")

		// Drop buckets that turned out empty, then rank.
		nonEmpty := live[:0:0]
		for _, b := range live {
			if b.taken > 0 {
				nonEmpty = append(nonEmpty, b)
			}
		}
		live = nonEmpty
		if iterIdx == 1 {
			r.stats.SpaceBuckets = len(live)
		}
		if len(live) == 0 {
			if r.ctx.Err() != nil {
				// Cancellation can stop scoreBuckets before any bucket
				// was sampled; that is an interrupted run, not an empty
				// sketch space.
				r.stats.Interrupted = true
				break
			}
			err := errors.New("core: the DSL's sketch space is empty")
			r.live.Finish(err)
			return nil, err
		}
		sort.SliceStable(live, func(i, j int) bool { return live[i].score < live[j].score })

		it := IterationStats{
			Index:            iterIdx,
			SamplesPerBucket: n,
			Segments:         len(segs),
			HandlersScored:   handlers,
		}
		for _, b := range live {
			it.Ranking = append(it.Ranking, BucketRank{Ops: b.ops, Score: b.score})
			b.iters++
			b.traj = append(b.traj, b.score)
		}

		// only-top-k: keep buckets scoring no worse than the k-th (§4.4:
		// ties are retained).
		kept := live
		if r.opts.NoBucketPruning {
			k = len(live)
		}
		if len(live) > k {
			cut := live[k-1].score
			idx := k
			for idx < len(live) && live[idx].score <= cut {
				idx++
			}
			for _, b := range live[idx:] {
				r.src.Release(b.ops)
			}
			kept = live[:idx]
		}
		it.Kept = len(kept)
		r.endIteration(isp, it)
		r.live.SetFunnel(r.funnelReport())
		live = kept

		if r.ctx.Err() != nil {
			r.stats.Interrupted = true
			break
		}
		if r.scored >= r.opts.MaxHandlers {
			r.stats.BudgetExhausted = true
			break
		}
		// Termination: everything remaining already fully enumerated and
		// sampled (covers the single-bucket case).
		allDone := true
		for _, b := range live {
			if !b.exhausted || b.taken > n {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}

		n *= 8
		if k > 1 {
			k /= 2
		}
		nseg += 2
	}

	r.finishBucketStats()
	if r.best.handler == nil {
		err := r.ctx.Err()
		if err == nil {
			err = errors.New("core: no viable handler found (all candidates diverged)")
		}
		r.live.Finish(err)
		return nil, err
	}
	// Report the final handler's distance over the full segment set.
	r.live.SetPhase("final_distance")
	fsp := root.Child("core.final_distance")
	final, _ := replay.NewScorer(r.segs, r.opts.Metric).WithPrograms(r.opts.Programs).
		Score(r.best.handler, math.Inf(1))
	fsp.End()
	r.stats.HandlersScored = r.scored
	r.live.SetBest(final, r.best.handler.String())
	r.live.Finish(nil)
	return &Result{
		Handler:  r.best.handler,
		Sketch:   r.best.sketch,
		Distance: final,
		Stats:    r.stats,
	}, nil
}

// finishBucketStats freezes per-bucket telemetry into SearchStats.Buckets
// (best-first) and re-renders each row as a "core.bucket" obs record — the
// run report's bucket-level account of where Algorithm 1 spent its budget
// and why it converged where it did.
func (r *runState) finishBucketStats() {
	var bs []BucketStats
	for _, b := range r.buckets {
		if b.iters == 0 {
			continue
		}
		r.stats.Funnel.Merge(b.funnel)
		bs = append(bs, BucketStats{
			Ops:            b.ops,
			Iterations:     b.iters,
			SketchesTaken:  b.taken,
			HandlersScored: b.handlers,
			Pruned:         b.pruned,
			Funnel:         b.funnel,
			Exhausted:      b.exhausted,
			Best:           b.score,
			Trajectory:     b.traj,
		})
	}
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Best < bs[j].Best })
	r.stats.Buckets = bs
	rep := r.funnelReport()
	r.live.SetFunnel(rep)
	if r.obsv != nil {
		for i := range bs {
			r.obsv.Record("core.bucket", bucketReport(bs[i]))
		}
		// The run's provenance record: the aggregate funnel plus each
		// bucket's, for funneldiff and the run report.
		r.obsv.Record("core.funnel", rep)
	}
}

// funnelReport assembles the run-level provenance summary — aggregate
// funnel, per-bucket funnels best-first, winning handler — from buckets
// sampled at least once. Safe to call only between iterations (the
// coordinator's side of the single-writer discipline on bucket funnels).
func (r *runState) funnelReport() RunFunnelReport {
	rep := RunFunnelReport{Run: r.runName, Distance: ReportFloat(r.best.distance)}
	if r.best.handler != nil {
		rep.Handler = r.best.handler.String()
	}
	var total Funnel
	bks := make([]*bucket, 0, len(r.buckets))
	for _, b := range r.buckets {
		if b.iters == 0 && b.funnel.Enumerated == 0 {
			continue
		}
		total.Merge(b.funnel)
		bks = append(bks, b)
	}
	sort.SliceStable(bks, func(i, j int) bool { return bks[i].score < bks[j].score })
	rep.Total = total.Report()
	rep.Buckets = make([]BucketFunnelReport, len(bks))
	for i, b := range bks {
		rep.Buckets[i] = BucketFunnelReport{Ops: b.ops.String(), Funnel: b.funnel.Report()}
	}
	return rep
}

// endIteration is the one place per-iteration accounting leaves the loop:
// it appends the IterationStats to SearchStats, re-renders the same value
// as the run report's "core.iteration" record, emits the progress line, and
// closes the iteration span. SearchStats and the obs report can therefore
// never disagree.
func (r *runState) endIteration(sp *obs.Span, it IterationStats) {
	r.stats.Iterations = append(r.stats.Iterations, it)
	if r.obsv != nil {
		// Cumulative cache traffic lands in the flight recorder once per
		// iteration (per-hit notes would tax the scoring hot path).
		f := r.obsv.Flight()
		f.Note("counter", "core.score_cache_hits", float64(r.cCacheHits.Value()))
		f.Note("counter", "core.score_cache_misses", float64(r.cCacheMisses.Value()))
		r.obsv.Record("core.iteration", iterationReport(it, r.best.distance))
		r.obsv.Progressf("iteration %d: N=%d over %d segments, %d handlers, kept %d/%d buckets, best %.2f",
			it.Index, it.SamplesPerBucket, it.Segments, it.HandlersScored,
			it.Kept, len(it.Ranking), r.best.distance)
		sp.SetAttr("index", it.Index).SetAttr("handlers", it.HandlersScored)
	}
	sp.End()
}

// randomSegments draws n segments uniformly without replacement.
func randomSegments(segs []*trace.Segment, n int, rng *rand.Rand) []*trace.Segment {
	if n >= len(segs) {
		out := make([]*trace.Segment, len(segs))
		copy(out, segs)
		return out
	}
	perm := rng.Perm(len(segs))
	out := make([]*trace.Segment, n)
	for i := 0; i < n; i++ {
		out[i] = segs[perm[i]]
	}
	return out
}

// segmentSetID fingerprints an iteration's segment subset (by index into
// the run's full segment list) so memoized scores can never leak between
// different subsets.
func (r *runState) segmentSetID(segs []*trace.Segment) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range segs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.segIdx[s]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// scoreBuckets samples and scores n sketches from every live bucket in
// parallel, updating bucket scores and the global best. It returns the
// number of handlers scored.
//
// Cutoff discipline: each bucket's workers prune against bucket-local
// state only (the bucket's best score, fixed per sketch at scoreSketch
// entry) unless GreedyPruning opts into the shared atomic best. Pruned
// (inexact) scores never update bucket or global bests — the exact flag
// guards every comparison — which is what makes the fast path return the
// identical result as ExactScoring for a fixed seed: a candidate is only
// abandoned once its true score provably cannot improve the bucket, so
// the sequence of bucket-best updates is the same in both modes.
func (r *runState) scoreBuckets(live []*bucket, n int, scorer *replay.Scorer, setID uint64, parent *obs.Span) int {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   int
		sketchN int
		budget  = r.opts.MaxHandlers - r.scored
		perBkt  = budgetShare(budget, len(live))
	)
	// While blocked on the scoring workers this goroutine does no CPU work,
	// so an externally gated run gives its own slot back up front — with a
	// one-slot gate (single-core host) the first worker could otherwise
	// never be admitted.
	if r.holding {
		r.gate.Release()
		r.holding = false
	}
	for _, b := range live {
		// Worker admission doubles as the concurrency bound: Acquire only
		// fails on context cancellation, in which case the remaining
		// buckets keep their previous scores (the run is winding down).
		if !r.gate.Acquire(r.ctx) {
			break
		}
		wg.Add(1)
		go func(b *bucket) {
			defer wg.Done()
			defer r.gate.Release()
			// One span per scoring worker: its own lane on the exported
			// timeline, and a "core.score_bucket" phase total.
			wsp := parent.Child("core.score_bucket")
			busy := time.Now()
			b.sketches, b.exhausted = r.src.Take(b.ops, n, r.opts.BucketCap, r.opts.ScanBudget)
			b.taken = len(b.sketches)
			handlers := 0
			// One funnel and one reusable lane scratch per worker: the hot
			// path tallies into worker-local state, folded into the bucket
			// (and the obs counters, in bulk) once per iteration.
			var fl Funnel
			scr := newLaneScratch()
			for _, sk := range b.sketches {
				if handlers >= perBkt {
					break
				}
				if r.ctx.Err() != nil {
					break
				}
				h, d, exact, hn := r.scoreSketch(sk, scorer, setID, b.score, &fl, scr)
				handlers += hn
				r.live.AddHandlers(hn)
				if exact && d < b.score {
					b.score = d
					b.best = scoredHandler{handler: h, sketch: sk, distance: d}
				}
			}
			b.handlers += handlers
			b.pruned += fl.Pruned()
			b.funnel.Merge(fl)
			r.addFunnelCounters(&fl)
			r.cBusyNS.Add(time.Since(busy).Nanoseconds())
			wsp.SetAttr("ops", b.ops.String()).SetAttr("handlers", handlers)
			wsp.End()
			mu.Lock()
			total += handlers
			sketchN += b.taken
			if b.best.handler != nil && b.best.distance < r.best.distance {
				r.best = b.best
				r.storeBest(b.best.distance)
				r.obsv.Metric("core.best_distance", b.best.distance)
				if r.obsv != nil {
					// The timeline's instant event for an improvement,
					// annotated with the bucket that produced it.
					r.live.SetBest(b.best.distance, b.best.handler.String())
					r.obsv.Record("core.best_improved", BestImprovedReport{
						Bucket:   b.ops.String(),
						Distance: ReportFloat(b.best.distance),
						Handler:  b.best.handler.String(),
					})
				}
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	if r.opts.Gate != nil && !r.holding {
		r.holding = r.gate.Acquire(r.ctx)
	}
	r.scored += total
	r.stats.SketchesScored += sketchN
	r.cHandlers.Add(int64(total))
	r.cSketches.Add(int64(sketchN))
	return total
}

// budgetShare splits the remaining handler budget across buckets. Ceiling
// division so every bucket — the last one included — gets a nonzero share
// whenever any budget remains, even with budget < buckets; a depleted (or
// overdrawn) budget yields 0 for everyone.
func budgetShare(budget, buckets int) int {
	if buckets <= 0 || budget <= 0 {
		return 0
	}
	return (budget + buckets - 1) / buckets
}

// cutoff adjusts a bucket-local pruning threshold for the run's mode:
// ExactScoring disables pruning outright, GreedyPruning tightens it with
// the cross-bucket atomic best.
func (r *runState) cutoff(c float64) float64 {
	if r.opts.ExactScoring {
		return math.Inf(1)
	}
	if r.opts.GreedyPruning {
		if g := r.loadBest(); g < c {
			c = g
		}
	}
	return c
}

// addFunnelCounters bulk-adds one worker-iteration's funnel into the obs
// registry counters — a handful of atomics per bucket per iteration
// rather than one per candidate.
func (r *runState) addFunnelCounters(fl *Funnel) {
	if r.obsv == nil {
		return
	}
	r.cFunnelEnum.Add(int64(fl.Enumerated))
	if fl.NewBest > 0 {
		r.cFunnelNew.Add(int64(fl.NewBest))
	}
	for i := range fl.Stages {
		if c := fl.Stages[i].Candidates; c > 0 {
			r.cFunnel[i].Add(int64(c))
		}
	}
}

// completions returns the constant assignments to try for a sketch: the
// full cross product when small enough, otherwise a deterministic random
// sample (§4.2's approximate concretization). A hole-free sketch gets one
// empty assignment.
func completions(sk *dsl.Node, pool []float64, holes, maxN int, seed int64) [][]float64 {
	if holes == 0 {
		// A hole-free sketch is its own single completion, pool or not.
		return [][]float64{{}}
	}
	if len(pool) == 0 {
		return nil
	}
	total := 1
	for i := 0; i < holes; i++ {
		total *= len(pool)
		if total > maxN {
			break
		}
	}
	if total <= maxN {
		// Exhaustive cross product.
		out := make([][]float64, 0, total)
		idx := make([]int, holes)
		for {
			vals := make([]float64, holes)
			for i, j := range idx {
				vals[i] = pool[j]
			}
			out = append(out, vals)
			i := holes - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(pool) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
		return out
	}
	// Deterministic per-sketch random sample.
	h := fnv.New64a()
	fmt.Fprint(h, sk.Key())
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	out := make([][]float64, maxN)
	for i := range out {
		vals := make([]float64, holes)
		for j := range vals {
			vals[j] = pool[rng.Intn(len(pool))]
		}
		out[i] = vals
	}
	return out
}
