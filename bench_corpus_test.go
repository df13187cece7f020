// Corpus-scale benchmarks: the zero-allocation pcap ingestion path, the
// batch synthesis engine versus a sequential loop of standalone runs, and
// a warm restart's snapshot restore. All feed the bench-compare baseline;
// TestBatchMatchesSequential (in internal/corpus) pins that the two batch
// variants return identical per-trace results, so the speedup there is
// pure scheduling and sharing.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// benchPcapBytes renders a 30-second reno capture as raw pcap file bytes.
func benchPcapBytes(tb testing.TB) []byte {
	tb.Helper()
	res, err := sim.Run(sim.Config{
		CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond,
		Duration: 30 * time.Second, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := res.WritePcap()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// pcapReadPass streams every packet of the capture through the reusable
// record and layer structs, returning the packet count.
func pcapReadPass(tb testing.TB, rd *bytes.Reader, raw []byte, pr *wire.PcapReader, rec *wire.PcapRecord, pkt *wire.Packet) int {
	rd.Reset(raw)
	pr.Reset(rd)
	n := 0
	for {
		if err := pr.NextInto(rec); err != nil {
			break
		}
		if err := wire.DecodePacketLinkInto(pr.LinkType, rec.Data, pkt); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return n
}

// BenchmarkPcapRead measures streaming pcap ingestion of a 30s capture
// with caller-owned buffers: NextInto + DecodePacketLinkInto. The
// steady-state contract is zero allocations per packet (asserted by
// TestPcapReadZeroAlloc); allocs/op here covers the whole file pass.
func BenchmarkPcapRead(b *testing.B) {
	raw := benchPcapBytes(b)
	rd := bytes.NewReader(raw)
	pr := wire.NewPcapReader(rd)
	var rec wire.PcapRecord
	var pkt wire.Packet
	packets := pcapReadPass(b, rd, raw, pr, &rec, &pkt) // warm the buffers
	if packets == 0 {
		b.Fatal("no packets")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcapReadPass(b, rd, raw, pr, &rec, &pkt)
	}
	b.ReportMetric(float64(packets), "packets/op")
}

// TestPcapReadZeroAlloc pins the reused-buffer read path's contract: after
// one warm-up pass sizes the buffers, a full-file streaming pass performs
// zero heap allocations.
func TestPcapReadZeroAlloc(t *testing.T) {
	raw := benchPcapBytes(t)
	rd := bytes.NewReader(raw)
	pr := wire.NewPcapReader(rd)
	var rec wire.PcapRecord
	var pkt wire.Packet
	if n := pcapReadPass(t, rd, raw, pr, &rec, &pkt); n == 0 {
		t.Fatal("no packets")
	}
	allocs := testing.AllocsPerRun(3, func() {
		pcapReadPass(t, rd, raw, pr, &rec, &pkt)
	})
	if allocs != 0 {
		t.Errorf("streaming pcap pass allocates %.1f times per file, want 0", allocs)
	}
}

// benchBatchJobs builds eight reno traces under varied network settings —
// the corpus-scale workload of the batch engine benchmarks.
func benchBatchJobs(b *testing.B) []corpus.Job {
	b.Helper()
	var jobs []corpus.Job
	for i := 0; i < 8; i++ {
		res, err := sim.Run(sim.Config{
			CCA:       "reno",
			Bandwidth: float64(5+i) * 1e6 / 8,
			RTT:       time.Duration(25+10*i) * time.Millisecond,
			Duration:  12 * time.Second,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := trace.AnalyzeRecords(res.Records)
		if err != nil {
			b.Fatal(err)
		}
		segs := tr.Split(16)
		if len(segs) == 0 {
			b.Fatal("trace produced no segments")
		}
		jobs = append(jobs, corpus.Job{Name: fmt.Sprintf("reno-%d", i), Segments: segs})
	}
	return jobs
}

// benchBatchOpts is the per-trace synthesis configuration both batch
// benchmarks share: a modest handler budget over the broad vegas bucket
// space — the realistic unknown-CCA setting, where per-trace enumeration
// and compilation are a large fraction of the work the corpus amortizes.
func benchBatchOpts() core.Options {
	return core.Options{
		DSL:            dsl.Vegas(),
		InitialSamples: 8,
		MaxHandlers:    1000,
		MaxCompletions: 8,
		ScanBudget:     20000,
		Seed:           1,
	}
}

// BenchmarkBatchSynthesize runs the 8-trace workload through the batch
// engine: one shared compiled sketch corpus, jobs=GOMAXPROCS, one global
// CPU gate. Compare against BenchmarkBatchSequential; per-trace results
// are pinned identical by internal/corpus's determinism test.
func BenchmarkBatchSynthesize(b *testing.B) {
	jobs := benchBatchJobs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := corpus.Run(context.Background(), jobs, corpus.RunOptions{
			Jobs: runtime.GOMAXPROCS(0),
			Core: benchBatchOpts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range res.Traces {
			if tr.Err != nil {
				b.Fatal(tr.Err)
			}
		}
		b.ReportMetric(float64(res.Corpus["corpus.sketches_shared"]), "shared/op")
	}
	b.ReportMetric(float64(len(jobs)), "traces/op")
}

// BenchmarkBatchSequential is the pre-corpus baseline: the same 8 traces
// synthesized one after another, each standalone run re-enumerating and
// re-compiling the whole sketch space.
func BenchmarkBatchSequential(b *testing.B) {
	jobs := benchBatchJobs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := core.Synthesize(context.Background(), j.Segments, benchBatchOpts()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "traces/op")
}

// BenchmarkSnapshotRestore measures a warm restart's corpus restore: per
// op, LoadSnapshot of a reno corpus prewarmed at the default bounds, then
// the first 8 sketches of every bucket, as a job's first refinement round
// would take them. Restore decodes lazily, so sketches_decoded/op is the
// parsing a restart actually pays for.
func BenchmarkSnapshotRestore(b *testing.B) {
	opts := corpus.Options{DSL: dsl.Reno()}
	c, err := corpus.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	c.Prewarm(context.Background(), runtime.GOMAXPROCS(0))
	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	c.Close()
	reg := obs.New()
	opts.Obs = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := corpus.LoadSnapshot(bytes.NewReader(snap.Bytes()), opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, ops := range warm.Buckets() {
			warm.Take(ops, 8, 0, 0)
		}
		warm.Close()
	}
	b.ReportMetric(float64(reg.Counter("corpus.snapshot_sketches_decoded").Value())/float64(b.N), "sketches_decoded/op")
}
