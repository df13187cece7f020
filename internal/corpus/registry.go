package corpus

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Registry keeps one warm SketchCorpus per DSL configuration, keyed by
// Options.ConfigHash — the daemon's corpus pool. Get serves repeat
// configurations from memory, restores evicted ones from the snapshot
// directory when one is configured, and builds cold ones last. Save
// persists every live corpus that changed since its load or last save, so
// the next process starts warm and an unchanged snapshot is never
// rewritten.
//
// Observability (on the registry's obs.Registry):
//
//	counters  corpus.registry_hits (warm in-memory serves),
//	          corpus.registry_snapshot_loads (restored from disk),
//	          corpus.registry_builds (cold enumerations),
//	          corpus.snapshot_saves
//	gauges    corpus.registry_corpora
type Registry struct {
	mu      sync.Mutex
	dir     string // snapshot directory; "" disables persistence
	obsv    *obs.Registry
	corpora map[string]*SketchCorpus
}

// NewRegistry returns a corpus registry persisting snapshots under dir
// ("" keeps everything in memory only). The obs registry receives every
// corpus's instruments.
func NewRegistry(dir string, obsv *obs.Registry) *Registry {
	return &Registry{dir: dir, obsv: obsv, corpora: map[string]*SketchCorpus{}}
}

// snapshotPath names a config's snapshot file: DSL name for the humans,
// config hash for the machines.
func (r *Registry) snapshotPath(opts Options) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-%s.snapshot", opts.DSL.Name, opts.ConfigHash()))
}

// Get returns the corpus for opts, building or restoring it on first use.
// opts.Obs is overridden with the registry's own obs registry so every
// corpus reports into one place.
func (r *Registry) Get(opts Options) (*SketchCorpus, error) {
	if opts.DSL == nil {
		return nil, fmt.Errorf("corpus: registry Get with nil DSL")
	}
	opts.Obs = r.obsv
	key := opts.ConfigHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.corpora[key]; ok {
		r.obsv.Counter("corpus.registry_hits").Inc()
		return c, nil
	}
	var c *SketchCorpus
	if r.dir != "" {
		if loaded, err := LoadSnapshotFile(r.snapshotPath(opts), opts); err == nil {
			c = loaded
			r.obsv.Counter("corpus.registry_snapshot_loads").Inc()
		} else if !os.IsNotExist(err) {
			// A torn, stale-version or mismatched snapshot is not fatal —
			// fall back to enumeration — but leave a trace of why.
			r.obsv.Flight().Note("corpus", "snapshot_load_failed", 1)
		}
	}
	if c == nil {
		built, err := New(opts)
		if err != nil {
			return nil, err
		}
		c = built
		r.obsv.Counter("corpus.registry_builds").Inc()
	}
	r.corpora[key] = c
	r.obsv.Gauge("corpus.registry_corpora").Set(float64(len(r.corpora)))
	return c, nil
}

// Prewarm materializes a config's full sketch space (Get + Prewarm) so
// later jobs do no enumeration, and persists it immediately when a
// snapshot directory is configured and the prewarm changed it.
func (r *Registry) Prewarm(ctx context.Context, opts Options, workers int) (*SketchCorpus, error) {
	c, err := r.Get(opts)
	if err != nil {
		return nil, err
	}
	c.Prewarm(ctx, workers)
	if ctx.Err() == nil {
		if err := r.save(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// save persists one corpus if a snapshot directory is configured and the
// corpus is dirty.
func (r *Registry) save(c *SketchCorpus) error {
	if r.dir == "" || !c.dirty() {
		return nil
	}
	if err := c.SaveSnapshot(r.snapshotPathFor(c)); err != nil {
		return err
	}
	r.obsv.Counter("corpus.snapshot_saves").Inc()
	return nil
}

// snapshotPathFor names a live corpus's snapshot file.
func (r *Registry) snapshotPathFor(c *SketchCorpus) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-%s.snapshot", c.d.Name, c.cfgHash))
}

// Save persists every dirty live corpus to the snapshot directory (no-op
// without one). Safe during jobs: WriteSnapshot copies under the bucket
// locks.
func (r *Registry) Save() error {
	r.mu.Lock()
	corpora := make([]*SketchCorpus, 0, len(r.corpora))
	for _, c := range r.corpora {
		corpora = append(corpora, c)
	}
	r.mu.Unlock()
	var first error
	for _, c := range corpora {
		if err := r.save(c); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops every corpus's enumerators. Get after Close still works
// (the daemon only calls it on shutdown).
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.corpora {
		c.Close()
	}
}
