// Package corpus implements batch synthesis over a fleet of traces: a
// SketchCorpus holds everything about the search space that is independent
// of any particular trace — the enumerated, canonicalized sketches of every
// bucket and their compiled register programs — and a batch engine (Run)
// schedules per-trace synthesis jobs that all share it. The paper runs
// Abagnale over 16 CCAs × many network settings (§5); sharing the
// trace-independent work is what makes that corpus-scale use affordable in
// one process.
//
// Observability (on the registry the corpus was built with):
//
//	counters  corpus.sketches_shared, corpus.sketches_enumerated,
//	          corpus.program_cache_hits, corpus.program_cache_misses,
//	          corpus.snapshot_sketches_loaded, corpus.snapshot_sketches_decoded
//	gauges    corpus.buckets
//
// sketches_shared counts sketches served from the already-materialized
// cache or a restored snapshot — enumeration work some earlier Take (this
// trace's, another's, or a previous process's) already paid for — while
// sketches_enumerated counts fresh pulls. snapshot_sketches_decoded counts
// restored sketches parsed back into trees, which happens lazily, on the
// first Take that reaches them.
package corpus

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/enum"
	"repro/internal/obs"
)

// Options configures a corpus build. Zero values match core's defaults, so
// a corpus built with only the DSL set is exactly equivalent to the
// per-run enumeration of a zero-value core.Options run.
type Options struct {
	// DSL is the sub-DSL whose sketch space the corpus holds (required).
	DSL *dsl.DSL
	// BucketCap bounds sketches materialized per bucket. Default
	// core.DefaultBucketCap.
	BucketCap int
	// ScanBudget is the scan limit of each bucket's enumerator over the
	// corpus's lifetime, in candidates as enum.Enumerator.BucketLimited
	// defines them. Default core.DefaultScanBudget.
	ScanBudget int
	// Obs receives the corpus counters (including enum.* for the
	// enumeration work the corpus absorbs on behalf of its runs).
	Obs *obs.Registry
}

// progShards is the number of lock stripes of the program cache; keys are
// spread by FNV-32a hash so concurrent trace jobs compiling different
// sketches rarely contend.
const progShards = 16

// progShardCap bounds one stripe of the program cache (random eviction,
// like replay's per-scorer cache). 16 shards × 2048 entries ≈ 32k
// programs, a few hundred bytes each — the corpus's compiled memory stays
// in the tens of megabytes even for DSLs whose sketch space overflows it.
const progShardCap = 2048

// SketchCorpus is the immutable-from-the-outside shared sketch space: per
// bucket, a lazily-extended cache of canonical sketches in enumeration
// order; across buckets, a sharded compiled-program cache keyed by
// canonical form. It implements core.SketchSource and
// replay.ProgramSource, and is safe for concurrent use by many synthesis
// runs.
//
// Sharing is sound because everything handed out is effectively immutable:
// sketch nodes have their canonical key memoized before publication and
// are only read afterwards (completions Bind clones), and compiled
// Programs never mutate after CompileProgram — per-candidate constants are
// patched into each worker's private Exec scratch.
type SketchCorpus struct {
	d          *dsl.DSL
	bucketCap  int
	scanBudget int
	cfgHash    string
	obsv       *obs.Registry

	keys    []dsl.OpSet
	buckets map[dsl.OpSet]*corpusBucket

	progs [progShards]progShard

	// gen counts the Takes that changed what a snapshot would record (new
	// sketches or a newly exhausted bucket); savedGen is the gen the last
	// successful save captured. Both start at 0, so a new or just-loaded
	// corpus is clean; it is dirty while they differ.
	gen, savedGen atomic.Uint64

	cShared     *obs.Counter
	cEnumerated *obs.Counter
	cDecoded    *obs.Counter
	cProgHits   *obs.Counter
	cProgMisses *obs.Counter
}

// corpusBucket is one bucket's shared enumeration state. The mutex
// serializes cache extension across trace jobs; readers of the returned
// prefix need no lock because entries are never mutated once appended.
type corpusBucket struct {
	mu        sync.Mutex
	ops       dsl.OpSet
	cache     []*dsl.Node
	next      func() (*dsl.Node, bool)
	stop      func()
	exhausted bool
	// loaded counts the sketches restored from a snapshot, decoded or not.
	// A fresh enumerator (started only if a Take outgrows the restored
	// prefix) must discard that many yields before appending: enumeration
	// order is deterministic, so the discard replays exactly the
	// constructions that produced the restored prefix, leaving the
	// enumerator — scan budget included — in the same state as an unbroken
	// run.
	loaded int
	// restored is the snapshot's newline-joined canonical keys of those
	// sketches, kept verbatim so a save of an unextended bucket writes it
	// back byte for byte; rest is its tail not yet decoded into cache.
	restored, rest string
}

// progShard is one lock stripe of the compiled-program cache.
type progShard struct {
	mu sync.Mutex
	m  map[string]*dsl.Program
}

// New builds a corpus for the DSL. Bucket keys are computed eagerly;
// sketches materialize on demand (call Prewarm to force the whole space).
func New(opts Options) (*SketchCorpus, error) {
	if opts.DSL == nil {
		return nil, errors.New("corpus: Options.DSL is required")
	}
	if opts.BucketCap == 0 {
		opts.BucketCap = core.DefaultBucketCap
	}
	if opts.ScanBudget == 0 {
		opts.ScanBudget = core.DefaultScanBudget
	}
	e := enum.New(opts.DSL)
	e.Obs = opts.Obs
	c := &SketchCorpus{
		d:           opts.DSL,
		bucketCap:   opts.BucketCap,
		scanBudget:  opts.ScanBudget,
		cfgHash:     opts.ConfigHash(),
		obsv:        opts.Obs,
		keys:        e.Buckets(),
		cShared:     opts.Obs.Counter("corpus.sketches_shared"),
		cEnumerated: opts.Obs.Counter("corpus.sketches_enumerated"),
		cDecoded:    opts.Obs.Counter("corpus.snapshot_sketches_decoded"),
		cProgHits:   opts.Obs.Counter("corpus.program_cache_hits"),
		cProgMisses: opts.Obs.Counter("corpus.program_cache_misses"),
	}
	c.buckets = make(map[dsl.OpSet]*corpusBucket, len(c.keys))
	for _, ops := range c.keys {
		c.buckets[ops] = &corpusBucket{ops: ops}
	}
	for i := range c.progs {
		c.progs[i].m = make(map[string]*dsl.Program)
	}
	opts.Obs.Gauge("corpus.buckets").Set(float64(len(c.keys)))
	return c, nil
}

// Buckets implements core.SketchSource.
func (c *SketchCorpus) Buckets() []dsl.OpSet { return c.keys }

// Take implements core.SketchSource: the first n sketches of the bucket in
// enumeration order. The corpus's own BucketCap/ScanBudget bound the
// materialization (together with the caller's capN, whichever is tighter),
// so every run sees the same prefix regardless of which run forced the
// enumeration.
func (c *SketchCorpus) Take(ops dsl.OpSet, n, capN, _ int) ([]*dsl.Node, bool) {
	b := c.buckets[ops]
	if b == nil {
		return nil, true
	}
	if capN > c.bucketCap || capN <= 0 {
		capN = c.bucketCap
	}
	if n > capN {
		n = capN
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cached := max(len(b.cache), b.loaded)
	c.cDecoded.Add(int64(b.decode(n)))
	grown, wasExhausted := len(b.cache), b.exhausted
	if b.next == nil && !b.exhausted && len(b.cache) < n {
		e := enum.New(c.d)
		e.Obs = c.obsv
		b.next, b.stop = iter.Pull(e.BucketLimited(b.ops, c.scanBudget))
		for i := 0; i < b.loaded && !b.exhausted; i++ {
			if _, ok := b.next(); !ok {
				b.exhausted = true
				b.stop()
			}
		}
	}
	for len(b.cache) < n && !b.exhausted {
		sk, ok := b.next()
		if !ok {
			b.exhausted = true
			b.stop()
			break
		}
		// Memoize the canonical key (recursively, so every subtree's cache
		// fills too) before the sketch becomes visible to other runs: Key
		// is lazily cached and must never be computed concurrently.
		sk.Key()
		b.cache = append(b.cache, sk)
		if len(b.cache) >= capN {
			b.exhausted = true
			b.stop()
		}
	}
	if len(b.cache) > grown || b.exhausted != wasExhausted {
		c.gen.Add(1)
	}
	if n > len(b.cache) {
		n = len(b.cache)
	}
	if n <= cached {
		c.cShared.Add(int64(n))
	} else {
		c.cShared.Add(int64(cached))
		c.cEnumerated.Add(int64(n - cached))
	}
	// Exhaustion is per call, not the bucket's global state: another run
	// (or Prewarm) may have extended the cache far past this caller's n,
	// and reporting the bucket exhausted on a short prefix would end the
	// caller's refinement early — batch results must match standalone runs.
	// A restored bucket's total counts its undecoded tail too.
	exhausted := n >= capN || (b.exhausted && n >= max(len(b.cache), b.loaded))
	return b.cache[:n], exhausted
}

// decode parses restored keys into the cache until it holds n sketches or
// the restored prefix runs out, and returns how many it parsed. ParseKey
// memoizes every subtree's key, so a decoded sketch is ready to publish,
// exactly like an enumerated one. The caller holds b.mu.
func (b *corpusBucket) decode(n int) int {
	decoded := 0
	for len(b.cache) < n && b.rest != "" {
		line := b.rest
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, b.rest = line[:i], line[i+1:]
		} else {
			b.rest = ""
		}
		sk, err := dsl.ParseKey(line)
		if err != nil {
			// LoadSnapshot verified the blob's checksum and key count, so
			// only a writer bug can get here.
			panic(fmt.Sprintf("corpus: bucket %s: restored sketch %d: %v", b.ops, len(b.cache), err))
		}
		b.cache = append(b.cache, sk)
		decoded++
	}
	return decoded
}

// Release implements core.SketchSource. It is a no-op: a bucket one trace
// prunes may still be live for another, and the corpus may outlive the
// batch. Use Close to stop the enumerators.
func (c *SketchCorpus) Release(dsl.OpSet) {}

// Close stops every live enumerator. Sketches already materialized stay
// valid; further Takes return only what is cached.
func (c *SketchCorpus) Close() {
	for _, ops := range c.keys {
		b := c.buckets[ops]
		b.mu.Lock()
		if b.next != nil && !b.exhausted {
			b.stop()
			b.exhausted = true
		}
		b.next = nil
		b.mu.Unlock()
	}
}

// Prewarm materializes every bucket up to the corpus's cap, fanning the
// buckets out over at most workers goroutines. It makes a subsequent batch
// free of enumeration — useful when the batch is large enough that lazy
// first-toucher enumeration would serialize jobs on the bucket locks.
// Exhausted buckets are skipped, so Prewarm of a corpus restored from a
// complete snapshot leaves every restored sketch undecoded.
func (c *SketchCorpus) Prewarm(ctx context.Context, workers int) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, ops := range c.keys {
		if ctx.Err() != nil {
			break
		}
		if c.buckets[ops].done() {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(ops dsl.OpSet) {
			defer wg.Done()
			defer func() { <-sem }()
			c.Take(ops, c.bucketCap, c.bucketCap, c.scanBudget)
		}(ops)
	}
	wg.Wait()
}

// done reports whether the bucket is exhausted.
func (b *corpusBucket) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exhausted
}

// dirty reports whether the corpus holds state — new sketches or newly
// exhausted buckets — that its last load or save did not.
func (c *SketchCorpus) dirty() bool { return c.gen.Load() != c.savedGen.Load() }

// Program implements replay.ProgramSource: the compiled register program
// for the expression's canonical form, compiling and caching on first use.
func (c *SketchCorpus) Program(key string, sk *dsl.Node) *dsl.Program {
	h := fnv.New32a()
	h.Write([]byte(key))
	sh := &c.progs[h.Sum32()%progShards]
	sh.mu.Lock()
	if p, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		c.cProgHits.Inc()
		return p
	}
	// Compile inside the lock: compilation is microseconds, and holding the
	// stripe prevents duplicate work when jobs hit the same sketch at once.
	p := dsl.CompileProgram(sk)
	if len(sh.m) >= progShardCap {
		for k := range sh.m { // drop an arbitrary entry
			delete(sh.m, k)
			break
		}
	}
	sh.m[key] = p
	sh.mu.Unlock()
	c.cProgMisses.Inc()
	return p
}

// Counters snapshots the corpus.* counters of the registry the corpus was
// built with — the cache-efficiency section of the batch report.
func (c *SketchCorpus) Counters() map[string]int64 {
	return c.obsv.CounterValues("corpus.")
}
