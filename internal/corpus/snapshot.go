package corpus

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dsl"
)

// Corpus snapshots persist the enumerated, canonicalized sketch space to
// disk so a daemon restart is a load, not a re-enumeration: a warm start
// from a snapshot performs zero candidate constructions (enum.candidates
// stays 0) and serves byte-identical Take prefixes, so a job repeated
// across a restart returns the identical handler and distance.
//
// Format: a gob stream of snapshotFile — a version tag, the DSL-config
// hash the corpus was built under, and per bucket the materialized sketch
// prefix as newline-joined canonical keys (dsl.Node.Key), its key count,
// an FNV-64a checksum of the keys, and its exhaustion flag. Loading checks
// all of that and stops there: the keys stay one undecoded string per
// bucket, and a Take parses (dsl.ParseKey) only the prefix it returns, on
// first use. Compiled register programs are not serialized either: the
// corpus compiles them on first use (Program), as it does for a cold
// corpus, which also keeps the file immune to VM-encoding drift across
// builds. A restored bucket that was never extended is written back
// verbatim, byte for byte.
//
// Versioning rules: SnapshotVersion bumps whenever the gob shape, the
// key spelling, the enumeration order, canonicalization, or anything else
// that decides which sketches exist (or their order) changes; a snapshot
// with a different version or a different config hash is rejected at load
// and the caller falls back to enumeration. Snapshots are written
// atomically (temp + rename), so a crashed writer never leaves a torn file
// behind.

// SnapshotVersion tags the on-disk format. Bump on any change to the gob
// shape, the key spelling, or enumeration/canonicalization order.
// Version 1 stored gob-encoded sketch trees; version 2 stores canonical
// keys with a per-bucket checksum.
const SnapshotVersion = 2

// snapshotFile is the gob-encoded snapshot shape.
type snapshotFile struct {
	Version int
	Config  string
	DSLName string
	Buckets []snapshotBucket
}

// snapshotBucket is one bucket's persisted enumeration state: Count
// sketches as newline-joined canonical keys, Sum the keySum of Keys.
type snapshotBucket struct {
	Ops       dsl.OpSet
	Count     int
	Keys      string
	Sum       uint64
	Exhausted bool
}

// keySum is FNV-64a over s, without copying s into a byte slice.
func keySum(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// keyCount is the number of newline-separated keys in a bucket's blob.
func keyCount(keys string) int {
	if keys == "" {
		return 0
	}
	return strings.Count(keys, "\n") + 1
}

// ConfigHash fingerprints everything that decides which sketch space a
// corpus holds: the full DSL definition (name alone is not enough — tests
// and ablations override depth/node budgets) and the corpus's
// materialization bounds. Two Options with equal hashes produce corpora
// that serve identical Take prefixes; snapshots are keyed by this hash.
func (o Options) ConfigHash() string {
	if o.BucketCap == 0 {
		o.BucketCap = core.DefaultBucketCap
	}
	if o.ScanBudget == 0 {
		o.ScanBudget = core.DefaultScanBudget
	}
	d := o.DSL
	h := fnv.New64a()
	fmt.Fprintf(h, "dsl=%s|depth=%d|nodes=%d|unit=%t|", d.Name, d.MaxDepth, d.MaxNodes, d.UnitCheck)
	for _, s := range d.Signals {
		fmt.Fprintf(h, "s%d,", int(s))
	}
	for _, m := range d.Macros {
		fmt.Fprintf(h, "m%d,", int(m))
	}
	for _, op := range d.NumOps {
		fmt.Fprintf(h, "n%d,", int(op))
	}
	for _, op := range d.BoolOps {
		fmt.Fprintf(h, "b%d,", int(op))
	}
	for _, c := range d.Constants {
		fmt.Fprintf(h, "k%g,", c)
	}
	fmt.Fprintf(h, "|cap=%d|scan=%d", o.BucketCap, o.ScanBudget)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ConfigHash returns the hash of the configuration the corpus was built
// with — the snapshot key.
func (c *SketchCorpus) ConfigHash() string { return c.cfgHash }

// WriteSnapshot serializes the corpus's materialized sketch space to w.
// Safe to call while jobs are running: each bucket's state is copied under
// its lock, so the snapshot is a consistent per-bucket prefix (entries are
// immutable once published). A restored bucket keeps its snapshot keys
// verbatim, decoded or not, followed by the keys of any sketches
// enumerated past them.
func (c *SketchCorpus) WriteSnapshot(w io.Writer) error {
	sf := snapshotFile{
		Version: SnapshotVersion,
		Config:  c.cfgHash,
		DSLName: c.d.Name,
	}
	for _, ops := range c.keys {
		b := c.buckets[ops]
		b.mu.Lock()
		restored, loaded := b.restored, b.loaded
		extended := b.cache[min(loaded, len(b.cache)):]
		exhausted := b.exhausted
		b.mu.Unlock()
		if loaded == 0 && len(extended) == 0 && !exhausted {
			continue // never touched; nothing to restore
		}
		keys := restored
		if len(extended) > 0 {
			var sb strings.Builder
			sb.WriteString(restored)
			for _, sk := range extended {
				if sb.Len() > 0 {
					sb.WriteByte('\n')
				}
				sb.WriteString(sk.Key())
			}
			keys = sb.String()
		}
		sf.Buckets = append(sf.Buckets, snapshotBucket{
			Ops:       ops,
			Count:     loaded + len(extended),
			Keys:      keys,
			Sum:       keySum(keys),
			Exhausted: exhausted,
		})
	}
	sort.Slice(sf.Buckets, func(i, j int) bool { return sf.Buckets[i].Ops < sf.Buckets[j].Ops })
	return gob.NewEncoder(w).Encode(&sf)
}

// SaveSnapshot writes the snapshot to path atomically and durably: a temp
// file in the same directory, fsync'd before the rename and with the
// directory fsync'd after, so a process killed at any instant — SIGKILL'd
// shard workers included — leaves either the old snapshot or the complete
// new one, never a torn gob, even across a host crash that drops dirty
// page-cache state. Parent directories are created as needed, and stale
// temp files abandoned by crashed writers are swept (age-gated, so a
// concurrent writer's in-flight temp in a shared snapshot dir is never
// touched).
//
// A successful save marks the corpus clean: Registry.Save and
// Registry.Prewarm skip it until a Take materializes something new.
func (c *SketchCorpus) SaveSnapshot(path string) error {
	gen := c.gen.Load()
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweepStaleTemps(dir)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	if err := c.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Durability of the rename itself: fsync the directory so the new
	// entry survives a crash. Best-effort — some filesystems reject
	// directory fsync, and the rename already guarantees atomicity.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	c.savedGen.Store(gen)
	return nil
}

// staleTempAge is how old an abandoned .snapshot-* temp must be before the
// sweeper removes it. Generous enough that no live writer — even one
// serializing a huge corpus on a loaded host — holds a temp this long.
const staleTempAge = time.Hour

// sweepStaleTemps garbage-collects temp files left behind by writers that
// died between CreateTemp and Rename. Shared snapshot dirs can have
// several concurrent writers (shard workers, a daemon), so only temps
// older than staleTempAge are removed; a freshly created temp always
// belongs to someone.
func sweepStaleTemps(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			os.Remove(m)
		}
	}
}

// LoadSnapshot builds a corpus for opts and restores the sketch space from
// the gob stream. The snapshot must carry the current SnapshotVersion and
// the exact ConfigHash of opts, and every bucket's keys must match its
// checksum and count; anything else is an error (callers fall back to a
// cold New). Restored buckets keep their keys undecoded until a Take
// reaches them, and programs compile on first use, so a load costs about
// one gob decode of the key strings. A subsequent run performs zero
// enumeration (a bucket saved non-exhausted resumes its enumerator only if
// a Take outgrows the restored prefix). The restored corpus starts clean.
func LoadSnapshot(r io.Reader, opts Options) (*SketchCorpus, error) {
	var sf snapshotFile
	if err := gob.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("corpus: decoding snapshot: %w", err)
	}
	if sf.Version != SnapshotVersion {
		return nil, fmt.Errorf("corpus: snapshot version %d, want %d", sf.Version, SnapshotVersion)
	}
	c, err := New(opts)
	if err != nil {
		return nil, err
	}
	if sf.Config != c.cfgHash {
		return nil, fmt.Errorf("corpus: snapshot config %s does not match %s (DSL %s)",
			sf.Config, c.cfgHash, opts.DSL.Name)
	}
	loaded := 0
	for _, sb := range sf.Buckets {
		b := c.buckets[sb.Ops]
		switch {
		case b == nil:
			return nil, fmt.Errorf("corpus: snapshot bucket %s not in the %s DSL's space", sb.Ops, opts.DSL.Name)
		case b.loaded > 0 || b.exhausted:
			return nil, fmt.Errorf("corpus: snapshot bucket %s stored twice", sb.Ops)
		case keySum(sb.Keys) != sb.Sum:
			return nil, fmt.Errorf("corpus: snapshot bucket %s fails its checksum", sb.Ops)
		case keyCount(sb.Keys) != sb.Count:
			return nil, fmt.Errorf("corpus: snapshot bucket %s holds %d keys, header says %d",
				sb.Ops, keyCount(sb.Keys), sb.Count)
		case sb.Count > c.bucketCap:
			return nil, fmt.Errorf("corpus: snapshot bucket %s holds %d sketches, cap is %d",
				sb.Ops, sb.Count, c.bucketCap)
		}
		b.restored, b.rest = sb.Keys, sb.Keys
		b.loaded = sb.Count
		b.exhausted = sb.Exhausted
		loaded += sb.Count
	}
	c.obsv.Counter("corpus.snapshot_sketches_loaded").Add(int64(loaded))
	return c, nil
}

// LoadSnapshotFile is LoadSnapshot over a file.
func LoadSnapshotFile(path string, opts Options) (*SketchCorpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f, opts)
}
