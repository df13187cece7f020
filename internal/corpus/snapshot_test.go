package corpus

import (
	"bytes"
	"context"
	"encoding/gob"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// snapOpts is a corpus config small enough to prewarm in a unit test.
func snapOpts(obsv *obs.Registry) Options {
	return Options{DSL: dsl.Reno(), BucketCap: 64, ScanBudget: 20000, Obs: obsv}
}

// TestSnapshotRoundTrip pins the warm-start property at the corpus layer:
// a corpus restored from a snapshot serves byte-identical Take prefixes
// for every bucket while performing zero candidate enumeration of its own.
func TestSnapshotRoundTrip(t *testing.T) {
	cold, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cold.Prewarm(context.Background(), 4)

	var buf bytes.Buffer
	if err := cold.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warmReg := obs.New()
	warm, err := LoadSnapshot(&buf, snapOpts(warmReg))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	if warm.ConfigHash() != cold.ConfigHash() {
		t.Fatalf("config hash drifted on load: %s != %s", warm.ConfigHash(), cold.ConfigHash())
	}
	for _, ops := range cold.Buckets() {
		want, wantEx := cold.Take(ops, 64, 0, 0)
		got, gotEx := warm.Take(ops, 64, 0, 0)
		if len(got) != len(want) || gotEx != wantEx {
			t.Fatalf("bucket %s: warm Take %d sketches (exhausted %t), cold %d (%t)",
				ops, len(got), gotEx, len(want), wantEx)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("bucket %s: warm sketch %d = %s, cold %s", ops, i, got[i].Key(), want[i].Key())
			}
		}
	}
	if got := warmReg.CounterValues("enum.")["enum.candidates"]; got != 0 {
		t.Errorf("warm corpus enumerated %d candidates, want 0", got)
	}
	if got := warmReg.CounterValues("corpus.")["corpus.snapshot_sketches_loaded"]; got == 0 {
		t.Error("corpus.snapshot_sketches_loaded not counted")
	}
}

// TestSnapshotResumeBeyondPrefix checks a snapshot taken before the space
// was fully materialized: a warm Take larger than the restored prefix
// resumes the deterministic enumerator and still matches a cold corpus.
func TestSnapshotResumeBeyondPrefix(t *testing.T) {
	opts := snapOpts(nil)
	partial, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	buckets := partial.Buckets()
	// Materialize a short prefix of every bucket, then snapshot mid-way.
	for _, ops := range buckets {
		partial.Take(ops, 8, 0, 0)
	}
	var buf bytes.Buffer
	if err := partial.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warm, err := LoadSnapshot(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	cold, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, ops := range buckets {
		want, wantEx := cold.Take(ops, 32, 0, 0)
		got, gotEx := warm.Take(ops, 32, 0, 0)
		if len(got) != len(want) || gotEx != wantEx {
			t.Fatalf("bucket %s: resumed Take %d (exhausted %t), cold %d (%t)",
				ops, len(got), gotEx, len(want), wantEx)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("bucket %s: resumed sketch %d diverges from cold enumeration", ops, i)
			}
		}
	}
}

// TestSnapshotRejectsMismatch pins the versioning rules: a wrong format
// version or a different DSL config must be rejected at load.
func TestSnapshotRejectsMismatch(t *testing.T) {
	c, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Take(c.Buckets()[0], 4, 0, 0)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Different DSL → config hash mismatch.
	other := snapOpts(nil)
	other.DSL = dsl.Cubic()
	if _, err := LoadSnapshot(bytes.NewReader(snap), other); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Errorf("config mismatch not rejected: %v", err)
	}
	// Different bounds → config hash mismatch too.
	widened := snapOpts(nil)
	widened.BucketCap = 128
	if _, err := LoadSnapshot(bytes.NewReader(snap), widened); err == nil {
		t.Error("bucket-cap mismatch not rejected")
	}
	// Wrong format version.
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(&snapshotFile{Version: SnapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&vbuf, snapOpts(nil)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

// TestRegistryWarmStart exercises the registry tiering: build + save on
// the first process, snapshot load (zero enumeration) on the second,
// in-memory hit within one process.
func TestRegistryWarmStart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DSL: dsl.Reno(), BucketCap: 64, ScanBudget: 20000}

	reg1 := obs.New()
	r1 := NewRegistry(dir, reg1)
	c1, err := r1.Prewarm(context.Background(), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reg1.CounterValues("corpus.")["corpus.registry_builds"] != 1 {
		t.Error("first Get did not build")
	}
	again, err := r1.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again != c1 {
		t.Error("second Get did not serve the warm in-memory corpus")
	}
	if reg1.CounterValues("corpus.")["corpus.registry_hits"] != 1 {
		t.Error("registry hit not counted")
	}
	files, err := filepath.Glob(filepath.Join(dir, "reno-*.snapshot"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot file not written: %v %v", files, err)
	}
	if fi, err := os.Stat(files[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file empty: %v", err)
	}
	r1.Close()

	// "Restart": a fresh registry over the same directory loads instead of
	// enumerating.
	reg2 := obs.New()
	r2 := NewRegistry(dir, reg2)
	defer r2.Close()
	c2, err := r2.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.CounterValues("corpus.")["corpus.registry_snapshot_loads"]; got != 1 {
		t.Errorf("registry_snapshot_loads = %d, want 1", got)
	}
	for _, ops := range c2.Buckets() {
		c2.Take(ops, 64, 0, 0)
	}
	if got := reg2.CounterValues("enum.")["enum.candidates"]; got != 0 {
		t.Errorf("warm-started registry enumerated %d candidates, want 0", got)
	}
}

// TestSaveSnapshotCrashSafe pins the atomic-save contract: a save never
// leaves its own temp file behind, an abandoned temp from a crashed writer
// is swept once it ages out, and a concurrent writer's fresh temp in a
// shared snapshot dir is left alone.
func TestSaveSnapshotCrashSafe(t *testing.T) {
	c, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Prewarm(context.Background(), 4)

	dir := t.TempDir()
	// A crashed writer's abandoned temp (aged out) and a live concurrent
	// writer's fresh one.
	stale := filepath.Join(dir, ".snapshot-stale")
	fresh := filepath.Join(dir, ".snapshot-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "reno-test.snapshot")
	if err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp not swept")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp of a concurrent writer was removed")
	}
	os.Remove(fresh)
	temps, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil || len(temps) != 0 {
		t.Errorf("save left temps behind: %v", temps)
	}

	// The saved file is a complete, loadable snapshot serving the same
	// space.
	warm, err := LoadSnapshotFile(path, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.ConfigHash() != c.ConfigHash() {
		t.Errorf("loaded snapshot hash %s, want %s", warm.ConfigHash(), c.ConfigHash())
	}

	// Saving over an existing snapshot replaces it atomically (same
	// content, no error, still loadable).
	if err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path, snapOpts(nil)); err != nil {
		t.Fatal(err)
	}
}

// prewarmedSnapshot returns the snapshot bytes of a corpus prewarmed under
// opts.
func prewarmedSnapshot(t testing.TB, opts Options) []byte {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Prewarm(context.Background(), 4)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKeySumIsFNV64a pins the checksum as FNV-64a, the hash the snapshot
// format documents.
func TestKeySumIsFNV64a(t *testing.T) {
	for _, s := range []string{"", "w", "(+ w c)\n(* c s1)"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := keySum(s), h.Sum64(); got != want {
			t.Errorf("keySum(%q) = %x, FNV-64a %x", s, got, want)
		}
	}
}

// TestSnapshotRejectsCorruption flips one byte inside a bucket's key blob:
// the checksum must reject the file, and a registry over it must fall back
// to a cold build serving the same prefixes as New.
func TestSnapshotRejectsCorruption(t *testing.T) {
	snap := prewarmedSnapshot(t, snapOpts(nil))
	i := bytes.Index(snap, []byte("\n(+ "))
	if i < 0 {
		t.Fatal("no key blob found in the snapshot")
	}
	bad := append([]byte(nil), snap...)
	bad[i+2] = '-' // "(+ ..." becomes "(- ...": still a well-formed key
	if _, err := LoadSnapshot(bytes.NewReader(bad), snapOpts(nil)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted key blob not rejected: %v", err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(snap), snapOpts(nil)); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}

	dir := t.TempDir()
	reg := obs.New()
	reg.EnableFlight(64)
	r := NewRegistry(dir, reg)
	defer r.Close()
	if err := os.WriteFile(r.snapshotPath(snapOpts(nil)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.CounterValues("corpus.registry_")
	if counters["corpus.registry_builds"] != 1 || counters["corpus.registry_snapshot_loads"] != 0 {
		t.Fatalf("corrupted snapshot: %v, want one cold build and no load", counters)
	}
	noted := false
	for _, ev := range reg.Flight().Snapshot() {
		noted = noted || ev.Name == "snapshot_load_failed"
	}
	if !noted {
		t.Error("no snapshot_load_failed flight note")
	}
	want, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	for _, ops := range want.Buckets() {
		w, wEx := want.Take(ops, 64, 0, 0)
		g, gEx := got.Take(ops, 64, 0, 0)
		if len(g) != len(w) || gEx != wEx {
			t.Fatalf("bucket %s: fallback Take %d (%t), New %d (%t)", ops, len(g), gEx, len(w), wEx)
		}
		for k := range g {
			if g[k].Key() != w[k].Key() {
				t.Fatalf("bucket %s: fallback sketch %d = %s, New %s", ops, k, g[k].Key(), w[k].Key())
			}
		}
	}
}

// TestTakeDecodesLazily pins decode-on-demand: a Take of n sketches from
// a restored bucket parses at most n keys, counts them as shared, and
// reports exhaustion by the restored total, not by what it decoded.
func TestTakeDecodesLazily(t *testing.T) {
	snap := prewarmedSnapshot(t, snapOpts(nil))
	cold, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	reg := obs.New()
	warm, err := LoadSnapshot(bytes.NewReader(snap), snapOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := reg.CounterValues("corpus.")["corpus.snapshot_sketches_decoded"]; got != 0 {
		t.Fatalf("LoadSnapshot decoded %d sketches, want 0", got)
	}
	served := int64(0)
	for _, ops := range warm.Buckets() {
		for _, n := range []int{3, 2, 1, 7} {
			before := reg.CounterValues("corpus.")["corpus.snapshot_sketches_decoded"]
			got, gotEx := warm.Take(ops, n, 0, 0)
			want, wantEx := cold.Take(ops, n, 0, 0)
			served += int64(len(got))
			decoded := reg.CounterValues("corpus.")["corpus.snapshot_sketches_decoded"] - before
			if decoded > int64(n) {
				t.Fatalf("bucket %s: Take(%d) decoded %d sketches", ops, n, decoded)
			}
			if b := warm.buckets[ops]; len(b.cache) > 7 {
				t.Fatalf("bucket %s: %d sketches decoded after Takes of at most 7", ops, len(b.cache))
			}
			if len(got) != len(want) || gotEx != wantEx {
				t.Fatalf("bucket %s: Take(%d) = %d (exhausted %t), cold %d (%t)",
					ops, n, len(got), gotEx, len(want), wantEx)
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("bucket %s: sketch %d = %s, cold %s", ops, i, got[i].Key(), want[i].Key())
				}
			}
		}
	}
	c := reg.CounterValues("")
	if c["corpus.sketches_shared"] != served || c["corpus.sketches_enumerated"] != 0 || c["enum.candidates"] != 0 {
		t.Errorf("restored Takes: shared %d (want %d), enumerated %d, candidates %d (want 0)",
			c["corpus.sketches_shared"], served, c["corpus.sketches_enumerated"], c["enum.candidates"])
	}
}

// TestPrewarmRestoredDoesNothing pins that Prewarm of a corpus restored
// from a complete snapshot neither decodes nor enumerates.
func TestPrewarmRestoredDoesNothing(t *testing.T) {
	snap := prewarmedSnapshot(t, snapOpts(nil))
	reg := obs.New()
	warm, err := LoadSnapshot(bytes.NewReader(snap), snapOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warm.Prewarm(context.Background(), 4)
	c := reg.CounterValues("")
	if c["corpus.snapshot_sketches_decoded"] != 0 || c["enum.candidates"] != 0 {
		t.Errorf("Prewarm of a complete restored corpus decoded %d sketches, enumerated %d candidates",
			c["corpus.snapshot_sketches_decoded"], c["enum.candidates"])
	}
	if warm.dirty() {
		t.Error("Prewarm dirtied a complete restored corpus")
	}
}

// TestWriteSnapshotRestoredByteIdentical pins the verbatim round trip: a
// restored corpus that was never extended writes back the file it was
// loaded from, byte for byte — untouched, and after Takes that decoded
// part of it.
func TestWriteSnapshotRestoredByteIdentical(t *testing.T) {
	for _, snap := range [][]byte{prewarmedSnapshot(t, snapOpts(nil)), partialSnapshot(t, 8)} {
		warm, err := LoadSnapshot(bytes.NewReader(snap), snapOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := warm.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("untouched restored corpus wrote %d bytes that differ from the %d loaded", again.Len(), len(snap))
		}
		for _, ops := range warm.Buckets() {
			warm.Take(ops, 5, 0, 0)
		}
		again.Reset()
		if err := warm.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatal("partly decoded restored corpus does not write back its snapshot verbatim")
		}
		if warm.dirty() {
			t.Error("decoding restored sketches dirtied the corpus")
		}
		warm.Close()
	}
}

// partialSnapshot snapshots a corpus with only the first n sketches of
// every bucket materialized.
func partialSnapshot(t testing.TB, n int) []byte {
	t.Helper()
	c, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ops := range c.Buckets() {
		c.Take(ops, n, 0, 0)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistryCleanCorpusNotSaved pins that a restart over a complete
// snapshot rewrites nothing: Registry.Prewarm and Registry.Save both skip
// the clean restored corpus, leaving the file's bytes as they were.
func TestRegistryCleanCorpusNotSaved(t *testing.T) {
	dir := t.TempDir()
	opts := snapOpts(nil)
	r1 := NewRegistry(dir, obs.New())
	if _, err := r1.Prewarm(context.Background(), opts, 4); err != nil {
		t.Fatal(err)
	}
	r1.Close()
	path := r1.snapshotPath(opts)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	r2 := NewRegistry(dir, reg)
	defer r2.Close()
	c, err := r2.Prewarm(context.Background(), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range c.Buckets() {
		c.Take(ops, 64, 0, 0)
	}
	if err := r2.Save(); err != nil {
		t.Fatal(err)
	}
	counters := reg.CounterValues("corpus.")
	if counters["corpus.registry_snapshot_loads"] != 1 || counters["corpus.snapshot_saves"] != 0 {
		t.Errorf("restart over a complete snapshot: %d loads, %d saves (want 1, 0)",
			counters["corpus.registry_snapshot_loads"], counters["corpus.snapshot_saves"])
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("snapshot file changed by a clean restart (err %v)", err)
	}
}

// TestRestoredExtendedCorpusIsDirty pins the other side: a corpus
// restored from a mid-enumeration snapshot and then extended is dirty,
// is saved, and the saved file restores the extended prefixes.
func TestRestoredExtendedCorpusIsDirty(t *testing.T) {
	dir := t.TempDir()
	opts := snapOpts(nil)
	reg := obs.New()
	r := NewRegistry(dir, reg)
	if err := os.WriteFile(r.snapshotPath(opts), partialSnapshot(t, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := r.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.dirty() {
		t.Fatal("freshly restored corpus is dirty")
	}
	for _, ops := range c.Buckets() {
		c.Take(ops, 32, 0, 0)
	}
	if !c.dirty() {
		t.Fatal("restored corpus extended past its snapshot is not dirty")
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValues("corpus.")["corpus.snapshot_saves"]; got != 1 {
		t.Fatalf("snapshot_saves = %d, want 1", got)
	}
	if c.dirty() {
		t.Error("corpus still dirty after a save")
	}
	r.Close()

	warm, err := LoadSnapshotFile(r.snapshotPath(opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	cold, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, ops := range cold.Buckets() {
		want, _ := cold.Take(ops, 32, 0, 0)
		if b := warm.buckets[ops]; b.loaded != len(want) {
			t.Fatalf("bucket %s: saved %d sketches, want %d", ops, b.loaded, len(want))
		}
		got, _ := warm.Take(ops, 32, 0, 0)
		for i := range want {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("bucket %s: re-restored sketch %d = %s, cold %s", ops, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

// TestRestoredConcurrentTakes races Takes of overlapping prefixes, Prewarm
// and saves over one restored corpus: every Take must still return the
// cold prefix, and the snapshot must still round-trip byte for byte.
func TestRestoredConcurrentTakes(t *testing.T) {
	snap := partialSnapshot(t, 16)
	cold, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := LoadSnapshot(bytes.NewReader(snap), snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	buckets := warm.Buckets()
	want := map[dsl.OpSet][]*dsl.Node{}
	for _, ops := range buckets {
		want[ops], _ = cold.Take(ops, 16, 0, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ops := range buckets {
				n := 1 + (i*7+g*5)%16
				got, _ := warm.Take(ops, n, 0, 0)
				for k := range got {
					if got[k].Key() != want[ops][k].Key() {
						t.Errorf("bucket %s: concurrent sketch %d = %s, cold %s", ops, k, got[k].Key(), want[ops][k].Key())
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		if err := warm.WriteSnapshot(&buf); err != nil {
			t.Error(err)
		} else if !bytes.Equal(buf.Bytes(), snap) {
			t.Error("snapshot written during concurrent decoding differs from the loaded one")
		}
	}()
	wg.Wait()
	if warm.dirty() {
		t.Error("concurrent decoding dirtied the corpus")
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot: it must return
// an error or a corpus every bucket of which serves a full Take without
// panicking.
func FuzzLoadSnapshot(f *testing.F) {
	opts := Options{DSL: dsl.Reno(), BucketCap: 6, ScanBudget: 2000}
	c, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, ops := range c.Buckets()[:8] {
		c.Take(ops, 6, 0, 0)
	}
	c.Take(c.Buckets()[9], 2, 0, 0)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	c.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadSnapshot(bytes.NewReader(data), opts)
		if err != nil {
			return
		}
		defer c.Close()
		for _, ops := range c.Buckets() {
			c.Take(ops, opts.BucketCap, 0, 0)
		}
	})
}
