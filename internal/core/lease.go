package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dsl"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Lease-scoped scoring is the seam horizontal sharding plugs into. The
// coordinator keeps Algorithm 1's outer loop — the seeded segment
// selection, bucket ranking, top-k pruning, budget accounting and
// termination all stay in one process, consuming the run's rand stream
// exactly as a single-process run would — and delegates each iteration's
// bucket scoring through a LeaseExecutor. Per-bucket scoring is
// deterministic (Take prefixes, completions, and bucket-local cutoffs are
// all pure functions of the options and seed), so the fold below yields
// bit-identical winners and distances no matter which worker scored which
// bucket.

// IterationLease describes one refinement iteration's scoring work: which
// buckets to sample, how hard, and over which segment subset.
type IterationLease struct {
	// Iteration is the 1-based refinement iteration index.
	Iteration int
	// Samples is N for this iteration: sketches to take per bucket.
	Samples int
	// PerBucket is each bucket's handler-budget share for this iteration.
	PerBucket int
	// SegmentIDs indexes this iteration's segment subset into the run's
	// full segment list (both sides hold the same list in the same order).
	SegmentIDs []int
	// SetID fingerprints the segment subset (memo-cache and ledger tag).
	SetID uint64
	// Buckets lists the live buckets with their best-so-far distances.
	Buckets []LeaseBucket
}

// LeaseBucket is one bucket's slice of an IterationLease.
type LeaseBucket struct {
	// Ops is the bucket key.
	Ops dsl.OpSet
	// Best is the bucket's best sampled distance so far (+Inf initially);
	// the executor prunes against it and reports improvements below it.
	Best float64
}

// BucketOutcome is one bucket's scoring result for one lease.
type BucketOutcome struct {
	// Ops is the bucket key.
	Ops dsl.OpSet
	// Scored reports the bucket was actually sampled; a false outcome (a
	// cancelled or lost lease) leaves the coordinator's bucket untouched,
	// matching the in-process behavior of a worker that was never admitted.
	Scored bool
	// Score is the bucket's best distance after this lease (min of the
	// prior Best and any exact improvement found here).
	Score float64
	// Handler/Sketch carry the improving candidate when Score beat the
	// leased Best; nil otherwise.
	Handler *dsl.Node
	Sketch  *dsl.Node
	// Handlers counts concrete handlers evaluated by this lease.
	Handlers int
	// SketchesTaken is the enumeration prefix length Take returned.
	SketchesTaken int
	// Exhausted is Take's per-call exhaustion flag.
	Exhausted bool
	// Pruned counts candidates settled inexactly (Funnel.Pruned()).
	Pruned int
	// Funnel is the lease's elimination funnel for this bucket.
	Funnel Funnel
}

// LeaseExecutor scores one iteration's buckets on behalf of a run. The
// returned slice must align index-for-index with lease.Buckets; outcomes
// with Scored=false are skipped by the fold. Implementations may execute
// buckets anywhere (internal/shard fans them out over worker processes)
// but must preserve per-bucket determinism: same lease, same outcome.
type LeaseExecutor interface {
	ExecIteration(ctx context.Context, lease IterationLease) ([]BucketOutcome, error)
}

// execLeased is the remote counterpart of scoreBuckets: it packages the
// iteration as a lease, hands it to the executor, and folds the outcomes
// into the same bucket and global state the in-process scoring workers
// would have written, in lease (live) order as scoreBuckets does.
func (r *runState) execLeased(iterIdx, n int, live []*bucket, segs []*trace.Segment, setID uint64) int {
	lease := IterationLease{
		Iteration:  iterIdx,
		Samples:    n,
		PerBucket:  budgetShare(r.opts.MaxHandlers-r.scored, len(live)),
		SegmentIDs: make([]int, len(segs)),
		SetID:      setID,
		Buckets:    make([]LeaseBucket, len(live)),
	}
	for i, s := range segs {
		lease.SegmentIDs[i] = r.segIdx[s]
	}
	for i, b := range live {
		lease.Buckets[i] = LeaseBucket{Ops: b.ops, Best: b.score}
	}
	outs, err := r.opts.LeaseExec.ExecIteration(r.ctx, lease)
	if err != nil && r.obsv != nil {
		r.obsv.Flight().Note("core", "lease_exec_failed", 1)
	}
	total, sketchN := 0, 0
	for i, o := range outs {
		if i >= len(live) || !o.Scored {
			continue
		}
		b := live[i]
		b.taken = o.SketchesTaken
		b.exhausted = o.Exhausted
		b.handlers += o.Handlers
		b.pruned += o.Pruned
		b.funnel.Merge(o.Funnel)
		r.addFunnelCounters(&o.Funnel)
		r.live.AddHandlers(o.Handlers)
		total += o.Handlers
		sketchN += o.SketchesTaken
		if o.Handler != nil && o.Score < b.score {
			b.score = o.Score
			b.best = scoredHandler{handler: o.Handler, sketch: o.Sketch, distance: o.Score}
		}
		r.foldBest(b)
	}
	r.scored += total
	r.stats.SketchesScored += sketchN
	r.cHandlers.Add(int64(total))
	r.cSketches.Add(int64(sketchN))
	return total
}

// LeaseRunner is the worker side of lease-scoped scoring: per-job state (a
// memo cache and the per-iteration scorer) that executes IterationLeases
// over the job's full segment list. One runner serves one job; leases
// execute one at a time (the runner parallelizes across a lease's buckets
// internally, gate-bounded).
type LeaseRunner struct {
	r *runState

	mu          sync.Mutex // one lease at a time
	scorer      *replay.Scorer
	scorerSetID uint64
	haveScorer  bool

	es *enumSource // owned enumeration source when Options.Sketches is nil
}

// NewLeaseRunner prepares lease execution for one job. opts carries the
// same options the coordinating run was configured with (the coordinator's
// rand stream is not part of them — segment selection happens coordinator-
// side and arrives by index). Workers defaults to GOMAXPROCS of this
// process, not the coordinator's.
func NewLeaseRunner(segs []*trace.Segment, opts Options) (*LeaseRunner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	r := &runState{
		ctx:    context.Background(),
		opts:   opts,
		segs:   segs,
		segIdx: make(map[*trace.Segment]int, len(segs)),
		rng:    rand.New(rand.NewSource(opts.Seed)), // unused: selection is coordinator-side
		cache:  newScoreCache(0),
		obsv:   opts.Obs,
	}
	for i, s := range segs {
		r.segIdx[s] = i
	}
	r.cHandlers = opts.Obs.Counter("core.handlers_scored")
	r.cSketches = opts.Obs.Counter("core.sketches_scored")
	r.cCompletions = opts.Obs.Counter("core.completions_sampled")
	r.cBusyNS = opts.Obs.Counter("core.worker_busy_ns")
	r.cCacheHits = opts.Obs.Counter("core.score_cache_hits")
	r.cCacheMisses = opts.Obs.Counter("core.score_cache_misses")
	r.cFunnelEnum = opts.Obs.Counter("core.funnel_enumerated")
	r.cFunnelNew = opts.Obs.Counter("core.funnel_new_best")
	for i := FunnelStage(0); i < NumFunnelStages; i++ {
		r.cFunnel[i] = opts.Obs.Counter(funnelCounterName(i))
	}
	r.hScore = opts.Obs.Histogram("core.score_handler_seconds")
	r.best.distance = math.Inf(1)
	r.src = opts.Sketches
	lr := &LeaseRunner{r: r}
	if r.src == nil {
		lr.es = newEnumSource(opts.DSL, opts.Obs)
		r.src = lr.es
	}
	if opts.Gate != nil {
		r.gate = opts.Gate
	} else {
		r.gate = NewGate(opts.Workers)
	}
	return lr, nil
}

// Close stops an owned enumeration source (no-op with a shared corpus).
func (lr *LeaseRunner) Close() {
	if lr.es != nil {
		lr.es.Close()
	}
}

// Exec scores one lease and returns its outcomes, aligned with
// lease.Buckets. The per-bucket loop mirrors scoreBuckets exactly: Take
// the iteration's prefix, score sketches under the bucket-local best
// (updated as the lease's own exact improvements land), stop at the
// per-bucket budget or on cancellation. ctx cancellation yields partial
// outcomes (unstarted buckets report Scored=false).
//
// Outcomes are a pure function of the lease: the memo cache is reset per
// call (buckets partition canonical handlers, so a fresh cache loses no
// intra-lease hits — only cross-iteration ones, which depend on which
// worker scored the bucket last time and would make outcomes depend on
// lease placement). Work-stealing, worker death and duplicate reissue
// therefore cannot change what any lease returns.
func (lr *LeaseRunner) Exec(ctx context.Context, lease IterationLease) []BucketOutcome {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	r := lr.r
	r.cache = newScoreCache(0)
	if !lr.haveScorer || lr.scorerSetID != lease.SetID {
		segs := make([]*trace.Segment, len(lease.SegmentIDs))
		for i, id := range lease.SegmentIDs {
			segs[i] = r.segs[id]
		}
		lr.scorer = replay.NewScorer(segs, r.opts.Metric).WithPrograms(r.opts.Programs)
		if r.opts.Ledger != nil {
			lr.scorer.WithLedger(r.opts.Ledger, lease.SetID)
		}
		lr.scorerSetID = lease.SetID
		lr.haveScorer = true
	}

	outs := make([]BucketOutcome, len(lease.Buckets))
	var wg sync.WaitGroup
	for i := range lease.Buckets {
		if !r.gate.Acquire(ctx) {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer r.gate.Release()
			lb := lease.Buckets[i]
			busy := time.Now()
			sketches, exhausted := r.src.Take(lb.Ops, lease.Samples, r.opts.BucketCap, r.opts.ScanBudget)
			out := BucketOutcome{
				Ops:           lb.Ops,
				Scored:        true,
				Score:         lb.Best,
				SketchesTaken: len(sketches),
				Exhausted:     exhausted,
			}
			var fl Funnel
			scr := newLaneScratch()
			var best scoredHandler
			for _, sk := range sketches {
				if out.Handlers >= lease.PerBucket {
					break
				}
				if ctx.Err() != nil {
					break
				}
				h, d, exact, hn := r.scoreSketch(sk, lr.scorer, lease.SetID, out.Score, &fl, scr)
				out.Handlers += hn
				if exact && d < out.Score {
					out.Score = d
					best = scoredHandler{handler: h, sketch: sk, distance: d}
				}
			}
			out.Pruned = fl.Pruned()
			out.Funnel = fl
			if best.handler != nil {
				out.Handler = best.handler
				out.Sketch = best.sketch
			}
			r.addFunnelCounters(&fl)
			r.cBusyNS.Add(time.Since(busy).Nanoseconds())
			outs[i] = out
		}(i)
	}
	wg.Wait()
	total, sketchN := 0, 0
	for i := range outs {
		if outs[i].Scored {
			total += outs[i].Handlers
			sketchN += outs[i].SketchesTaken
		}
	}
	r.cHandlers.Add(int64(total))
	r.cSketches.Add(int64(sketchN))
	return outs
}
