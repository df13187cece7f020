// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each driving the same experiment code as cmd/experiments at
// the quick scale. Run with:
//
//	go test -bench=. -benchmem .
//
// The benchmarks report, via b.ReportMetric, the headline quantity of each
// experiment (distances, ranks, tolerance bands) so a bench run doubles as
// a compact reproduction record.
package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/enum"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchScale returns the reduced experiment scale used by every benchmark.
func benchScale() experiments.Scale {
	return experiments.QuickScale()
}

// BenchmarkTable2RenoFamily regenerates Table 2's Reno row: synthesized vs
// fine-tuned handler distance. The reported metrics are the two distances;
// the paper's shape is synth ~= fine-tuned for the Reno family.
func BenchmarkTable2RenoFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2([]string{"reno"}, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Err != nil {
			b.Fatal(rows[0].Err)
		}
		b.ReportMetric(rows[0].SynthDistance, "synth-dist")
		b.ReportMetric(rows[0].FineDistance, "fine-dist")
	}
}

// BenchmarkTable2VegasFamily regenerates Table 2's Vegas row: the
// synthesized handler should use the vegas-diff conditional structure.
func BenchmarkTable2VegasFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2([]string{"vegas"}, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Err != nil {
			b.Fatal(rows[0].Err)
		}
		b.ReportMetric(rows[0].SynthDistance, "synth-dist")
	}
}

// BenchmarkTable2BBR regenerates Table 2's BBR row (the §5.2 case study):
// a closed-form pulse approximation without hidden state.
func BenchmarkTable2BBR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2([]string{"bbr"}, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Err != nil {
			b.Fatal(rows[0].Err)
		}
		b.ReportMetric(rows[0].SynthDistance, "synth-dist")
		b.ReportMetric(rows[0].FineDistance, "fine-dist")
	}
}

// BenchmarkTable2Students regenerates the student-CCA section of Table 2
// for one representative bespoke algorithm.
func BenchmarkTable2Students(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2([]string{"student2"}, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Err != nil {
			b.Fatal(rows[0].Err)
		}
		b.ReportMetric(rows[0].SynthDistance, "synth-dist")
	}
}

// BenchmarkTable3Classifier regenerates Table 3: classification of every
// kernel and student CCA, reporting kernel accuracy (the paper gets 10/16
// correct plus informative confusions).
func BenchmarkTable3Classifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		correct := 0
		for _, r := range rows {
			if r.Correct {
				correct++
			}
		}
		b.ReportMetric(float64(correct), "correct-labels")
		b.ReportMetric(float64(len(rows)), "ccas")
	}
}

// BenchmarkTable4SearchAccuracy regenerates Table 4 for the Reno run: the
// rank of the fine-tuned handler's bucket after refinement iteration 1.
func BenchmarkTable4SearchAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4([]string{"reno"}, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(float64(rows[0].Rank1), "rank-iter1")
		b.ReportMetric(float64(rows[0].Total1), "buckets")
	}
}

// BenchmarkFig3DistanceMetrics regenerates Figure 3: the constant-error
// sweep across the four metrics on BBR traces, reporting how many sweep
// cells each of DTW and Euclidean got right (DTW should win).
func BenchmarkFig3DistanceMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range experiments.SummarizeFig3(points) {
			switch s.Metric {
			case "dtw":
				b.ReportMetric(float64(s.CorrectN), "dtw-correct")
			case "euclidean":
				b.ReportMetric(float64(s.CorrectN), "euclidean-correct")
			}
		}
	}
}

// BenchmarkFig4BBRPulse regenerates Figure 4: per-segment wins of the
// synthesized vs fine-tuned BBR pulse handlers.
func BenchmarkFig4BBRPulse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SynthWins), "synth-wins")
		b.ReportMetric(float64(r.FineWins), "fine-wins")
	}
}

// BenchmarkFig5HTCP regenerates Figure 5: how close the plain Reno-variant
// handler gets to the fine-tuned HTCP handler.
func BenchmarkFig5HTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RenoDistance, "reno-dist")
		b.ReportMetric(r.FineDistance, "fine-dist")
	}
}

// BenchmarkFig6DSLImpact regenerates Figure 6: student CCA #1 under the
// three DSL inputs; the reported metric is the best (lowest) distance and
// which variant achieved it, encoded as its index.
func BenchmarkFig6DSLImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchScale(), []string{"student1"})
		if err != nil {
			b.Fatal(err)
		}
		best, bestIdx := math.Inf(1), -1
		for j, r := range rows {
			if r.Err == nil && r.Distance < best {
				best, bestIdx = r.Distance, j
			}
		}
		b.ReportMetric(best, "best-dist")
		b.ReportMetric(float64(bestIdx), "best-dsl-index")
	}
}

// BenchmarkSearchEfficiencyReno regenerates §6.1's accounting: size of the
// viable Reno-DSL space and the fraction the refinement loop explored.
func BenchmarkSearchEfficiencyReno(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Efficiency(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SpaceSketches), "space-sketches")
		b.ReportMetric(100*r.FractionExplored, "space-explored-%")
	}
}

// --- Component micro-benchmarks -----------------------------------------

// BenchmarkSimulator30s measures raw simulator throughput: one 30-second
// Reno flow at 10 Mbit/s.
func BenchmarkSimulator30s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceAnalysis measures pcap-record analysis of a 30s capture.
func BenchmarkTraceAnalysis(b *testing.B) {
	res, err := sim.Run(sim.Config{CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.AnalyzeRecords(res.Records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTWDistance measures one banded DTW computation on the standard
// resampled grid.
func BenchmarkDTWDistance(b *testing.B) {
	mk := func(phase float64) dist.Series {
		s := dist.Series{Times: make([]float64, 500), Values: make([]float64, 500)}
		for i := range s.Times {
			t := float64(i) / 50
			s.Times[i] = t
			s.Values[i] = 10 + 5*math.Mod(t+phase, 2.0)
		}
		return s
	}
	a, c := mk(0), mk(0.5)
	m := dist.DTW{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(a, c)
	}
}

// BenchmarkEnumerateRenoSpace measures exhaustive enumeration of the
// depth-3 Reno-DSL sketch space (§6.1's 1,617-analog).
func BenchmarkEnumerateRenoSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		enum.New(dsl.Reno()).Count()
	}
}

// BenchmarkEnumerateCubicBuckets enumerates every cubic-DSL bucket as far
// as a synthesis run with default bounds can: scan budget
// core.DefaultScanBudget, at most core.DefaultBucketCap sketches. It
// reports the scan-budget charge per op as candidates/op.
func BenchmarkEnumerateCubicBuckets(b *testing.B) {
	d := dsl.Cubic()
	reg := obs.New()
	e := enum.New(d)
	e.Obs = reg
	keys := e.Buckets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ops := range keys {
			n := 0
			for range e.BucketLimited(ops, core.DefaultScanBudget) {
				if n++; n >= core.DefaultBucketCap {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(reg.Counter("enum.candidates").Value())/float64(b.N), "candidates/op")
}

// BenchmarkAblationDesignChoices runs the DESIGN.md ablation matrix on
// Reno traces: search metric, bucket pruning, segment selection and
// constant-pool variants under an equal budget.
func BenchmarkAblationDesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.MaxHandlers = 3000
		rows, err := experiments.Ablation("reno", s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Err == nil && r.Variant == "baseline (DTW, buckets, diverse)" {
				b.ReportMetric(r.Distance, "baseline-dist")
			}
		}
	}
}

// --- Scoring fast-path micro-benchmarks ---------------------------------
//
// BenchmarkScoreHandler pins the threshold-aware scoring path: one op is a
// sweep of representative handlers scored through replay.Scorer against real
// Reno segments. The Exact variant scores with no cutoff (the pre-fast-path
// cost); the Cutoff variant holds the cutoff at the best handler's score, the
// steady state of a search whose bucket best is already good — most other
// candidates abandon early. cells/op (DTW cells consumed per sweep) is
// reported from the dist counters so bench diffs catch pruning regressions
// that ns/op noise would hide.

// benchScorerHandlers is the fixed candidate sweep, spanning near-optimal,
// mediocre, wild, and diverging handlers.
var benchScorerHandlers = []string{
	"cwnd + reno-inc",
	"cwnd + 0.5*reno-inc",
	"cwnd + 0.1*reno-inc",
	"cwnd + mss",
	"mss",
	"cwnd + cwnd",
}

func benchmarkScoreHandler(b *testing.B, withCutoff bool) {
	res, err := sim.Run(sim.Config{
		CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond,
		Duration: 30 * time.Second, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.AnalyzeRecords(res.Records)
	if err != nil {
		b.Fatal(err)
	}
	segs := tr.Split(16)
	sc := replay.NewScorer(segs, dist.DTW{})
	handlers := make([]*dsl.Node, len(benchScorerHandlers))
	for i, src := range benchScorerHandlers {
		handlers[i] = dsl.MustParse(src)
	}
	cutoff := math.Inf(1)
	if withCutoff {
		// The best candidate's exact score: every worse handler must prove
		// it cannot beat it, the common case mid-search.
		cutoff, _ = sc.Score(handlers[0], math.Inf(1))
	}
	reg := obs.New()
	dist.Observe(reg)
	defer dist.Observe(nil)
	cellsBefore := reg.Report().Counters["dist.dtw_cells"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range handlers {
			sc.Score(h, cutoff)
		}
	}
	b.StopTimer()
	cells := reg.Report().Counters["dist.dtw_cells"] - cellsBefore
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// BenchmarkScoreHandlerExact is the no-cutoff baseline.
func BenchmarkScoreHandlerExact(b *testing.B) { benchmarkScoreHandler(b, false) }

// BenchmarkScoreHandlerCutoff is the pruned steady state.
func BenchmarkScoreHandlerCutoff(b *testing.B) { benchmarkScoreHandler(b, true) }

// benchmarkScoreHandlerLanes pins the per-sketch steady state the search
// core actually runs mid-search: the bucket best is already good and its
// handler is settled by the memo cache, so one op is replay.Lanes fresh
// completions of "cwnd + c1*reno-inc" — mediocre factors and a runaway —
// each proving under the incumbent's cutoff that it cannot win. Every
// lane here settles by lower bound on the first segment, which is the
// dominant fate in the real funnel once an incumbent exists (lb_prunes
// dwarf full scores); the cost is replay plus envelope passes, not DP
// cells, so this is the regime the K-wide VM was built for. The batch
// variant scores the set in one ScoreBatchDetail call (one K-wide VM
// replay plus one multi-series lower-bound pass); the scalar variant scores
// the identical lane set with a separate one-lane call per completion, so
// the pair measures the batching win on identical work.
func benchmarkScoreHandlerLanes(b *testing.B, batch bool) {
	res, err := sim.Run(sim.Config{
		CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond,
		Duration: 30 * time.Second, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.AnalyzeRecords(res.Records)
	if err != nil {
		b.Fatal(err)
	}
	segs := tr.Split(16)
	sc := replay.NewScorer(segs, dist.DTW{})
	cs := sc.CompileSketch(dsl.MustParse("cwnd + c1*reno-inc"))
	valsK := [][]float64{{0.5}, {0.4}, {0.3}, {0.25}, {0.2}, {0.1}, {0.05}, {2}}
	if len(valsK) != replay.Lanes {
		b.Fatalf("workload has %d lanes, want replay.Lanes = %d", len(valsK), replay.Lanes)
	}
	cutoff, _ := sc.Score(dsl.MustParse("cwnd + reno-inc"), math.Inf(1))
	cutoffs := make([]float64, len(valsK))
	for l := range cutoffs {
		cutoffs[l] = cutoff
	}
	ds := make([]float64, len(valsK))
	exacts := make([]bool, len(valsK))
	reg := obs.New()
	dist.Observe(reg)
	defer dist.Observe(nil)
	cellsBefore := reg.Report().Counters["dist.dtw_cells"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, nil)
		} else {
			for l := range valsK {
				cs.ScoreBatchDetail(valsK[l:l+1], cutoffs[l:l+1], ds[l:l+1], exacts[l:l+1], nil)
			}
		}
	}
	b.StopTimer()
	cells := reg.Report().Counters["dist.dtw_cells"] - cellsBefore
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// BenchmarkScoreHandlerCutoffBatch is the lane-batched steady state — the
// acceptance number for the K-wide scoring path.
func BenchmarkScoreHandlerCutoffBatch(b *testing.B) { benchmarkScoreHandlerLanes(b, true) }

// BenchmarkScoreHandlerCutoffScalarLanes is the identical lane workload
// scored one completion per call — the batched variant's direct one-lane
// baseline.
func BenchmarkScoreHandlerCutoffScalarLanes(b *testing.B) { benchmarkScoreHandlerLanes(b, false) }

// --- Register-VM replay micro-benchmarks --------------------------------
//
// BenchmarkReplayProgram isolates the replay inner loop the Scorer runs per
// candidate: Program.EvalSeries over a segment's signal columns with the
// hoisted prologue cached, constants patched per call — no metric work.
// acks/op reports the segment length the loop covers.

// benchReplaySegment returns the longest segment of the standard reno run.
func benchReplaySegment(b *testing.B) *trace.Segment {
	res, err := sim.Run(sim.Config{
		CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond,
		Duration: 30 * time.Second, Seed: 11,
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
		b.Fatal("no segments")
	}
	seg := segs[0]
	for _, s := range segs {
		if len(s.Samples) > len(seg.Samples) {
			seg = s
		}
	}
	return seg
}

func BenchmarkReplayProgram(b *testing.B) {
	seg := benchReplaySegment(b)
	cols := replay.NewCols(seg)
	sk := dsl.MustParse("cwnd + c1*reno-inc")
	prog := dsl.CompileProgram(sk)
	pro := prog.RunPrologue(cols)
	mss := seg.MSS
	cwnd0 := math.Max(seg.Samples[0].Cwnd, mss)
	out := make([]float64, cols.N)
	ex := dsl.NewExec()
	vals := []float64{0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := prog.EvalSeries(cols, pro, vals, cwnd0, mss, (1<<20)*mss, mss, out, ex); !ok {
			b.Fatal("diverged")
		}
	}
	b.ReportMetric(float64(cols.N), "acks/op")
}

// BenchmarkEvalSeriesBatch sweeps the K-wide VM over lane widths: one op
// replays a fixed workload of 16 completions of "cwnd + c1*reno-inc" over
// the standard segment, in batches of K lanes. K=1 is the batch kernel's
// own scalar degenerate (its overhead floor); wider K amortizes the
// per-row dispatch across lanes.
func BenchmarkEvalSeriesBatch(b *testing.B) {
	seg := benchReplaySegment(b)
	cols := replay.NewCols(seg)
	prog := dsl.CompileProgram(dsl.MustParse("cwnd + c1*reno-inc"))
	pro := prog.RunPrologue(cols)
	mss := seg.MSS
	cwnd0 := math.Max(seg.Samples[0].Cwnd, mss)
	const candidates = 16
	valsK := make([][]float64, candidates)
	outs := make([][]float64, candidates)
	for l := range valsK {
		valsK[l] = []float64{0.1 + 0.05*float64(l)}
		outs[l] = make([]float64, cols.N)
	}
	for _, k := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			rows := make([]int, k)
			oks := make([]bool, k)
			ex := dsl.NewBatchExec()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for at := 0; at < candidates; at += k {
					prog.EvalSeriesBatch(cols, pro, valsK[at:at+k],
						cwnd0, mss, (1<<20)*mss, mss, outs[at:at+k], rows, oks, ex)
				}
			}
			b.ReportMetric(float64(cols.N*candidates), "acks/op")
		})
	}
}

// --- Observability fast-path micro-benchmarks ---------------------------
//
// The obs layer's contract is that instrumentation left permanently in hot
// paths costs almost nothing when observability is off (nil handles). These
// benchmarks pin that: the disabled counter increment and disabled span
// must stay in the single-digit ns/op range.

// benchNilCounter and friends live at package scope so the compiler cannot
// prove the handles nil and delete the benchmark loop bodies outright.
var (
	benchNilCounter  *obs.Counter
	benchNilRegistry *obs.Registry
	benchSpanSink    *obs.Span
)

// BenchmarkObsDisabledCounter measures Counter.Add on a nil handle — the
// cost every instrumented hot path pays when no registry is attached.
func BenchmarkObsDisabledCounter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchNilCounter.Add(1)
	}
}

// BenchmarkObsDisabledSpan measures a StartSpan/End pair on a nil registry.
func BenchmarkObsDisabledSpan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := benchNilRegistry.StartSpan("bench")
		benchSpanSink = sp
		sp.End()
	}
}

// BenchmarkObsEnabledCounter measures the live atomic increment, for
// comparison with the disabled path.
func BenchmarkObsEnabledCounter(b *testing.B) {
	c := obs.New().Counter("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

// BenchmarkObsEnabledSpanNoSink measures a span round-trip on a live
// registry with no sink attached (phase accounting only).
func BenchmarkObsEnabledSpanNoSink(b *testing.B) {
	r := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StartSpan("bench").End()
	}
}

// BenchmarkObsFlightNote pins the flight recorder's acceptance bound: one
// append must stay at or under ~50 ns and never allocate, cheap enough to
// leave always-on under every span end and metric update.
func BenchmarkObsFlightNote(b *testing.B) {
	f := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Note("metric", "bench", 1.5)
	}
}

// BenchmarkLossResponseSynthesis exercises the §3 generalization claim:
// synthesizing the on-loss window update from observed loss reactions.
func BenchmarkLossResponseSynthesis(b *testing.B) {
	res, err := sim.Run(sim.Config{
		CCA: "reno", Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond,
		Duration: 30 * time.Second, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.AnalyzeRecords(res.Records)
	if err != nil {
		b.Fatal(err)
	}
	events := core.ExtractLossEvents(tr)
	if len(events) == 0 {
		b.Fatal("no loss events")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.SynthesizeLossResponse(events, core.Options{
			DSL: dsl.Reno(), MaxHandlers: 20000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(out.Error, "rel-error")
	}
}
