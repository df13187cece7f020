package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// segmentsFor builds trace segments for a CCA from two testbed scenarios.
// Results are cached: simulation and analysis dominate test time.
var segCache sync.Map

func segmentsFor(t *testing.T, cca string) []*trace.Segment {
	t.Helper()
	if v, ok := segCache.Load(cca); ok {
		return v.([]*trace.Segment)
	}
	var segs []*trace.Segment
	for i, cfg := range []sim.Config{
		{CCA: cca, Bandwidth: 10e6 / 8, RTT: 40 * time.Millisecond, Duration: 20 * time.Second},
		{CCA: cca, Bandwidth: 5e6 / 8, RTT: 80 * time.Millisecond, Duration: 20 * time.Second},
	} {
		cfg.Seed = int64(i + 1)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.AnalyzeRecords(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		tr.Label = cca
		segs = append(segs, tr.Split(16)...)
	}
	if len(segs) < 2 {
		t.Fatalf("only %d segments for %s", len(segs), cca)
	}
	segCache.Store(cca, segs)
	return segs
}

// quickOpts keeps synthesis runs fast enough for unit tests.
func quickOpts(d *dsl.DSL) Options {
	return Options{
		DSL:            d,
		InitialSamples: 8,
		MaxHandlers:    6000,
		MaxCompletions: 12,
		Seed:           1,
	}
}

func TestSynthesizeRenoFindsRenoShape(t *testing.T) {
	segs := segmentsFor(t, "reno")
	res, err := Synthesize(context.Background(), segs, quickOpts(dsl.Reno()))
	if err != nil {
		t.Fatal(err)
	}
	// The winning handler must involve reno-inc (or the equivalent
	// acked*mss/cwnd structure) and beat a constant-window handler.
	constD, _ := replay.NewScorer(segs, dist.DTW{}).Score(dsl.MustParse("cwnd"), math.Inf(1))
	if !(res.Distance < constD) {
		t.Errorf("synthesized %q distance %.1f not better than frozen window %.1f",
			res.Handler, res.Distance, constD)
	}
	if res.Handler.Depth() > dsl.Reno().MaxDepth {
		t.Errorf("handler %q exceeds DSL depth", res.Handler)
	}
	if err := dsl.Reno().Admits(res.Handler); err != nil {
		t.Errorf("handler %q outside DSL: %v", res.Handler, err)
	}
	t.Logf("reno handler: %s (distance %.2f)", res.Handler, res.Distance)
}

func TestSynthesizeDeterministic(t *testing.T) {
	segs := segmentsFor(t, "reno")
	r1, err := Synthesize(context.Background(), segs, quickOpts(dsl.Reno()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(context.Background(), segs, quickOpts(dsl.Reno()))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Handler.Equal(r2.Handler) {
		t.Errorf("same seed produced %q and %q", r1.Handler, r2.Handler)
	}
	if r1.Distance != r2.Distance {
		t.Errorf("distances differ: %v vs %v", r1.Distance, r2.Distance)
	}
}

func TestSynthesizeSeedChangesSampling(t *testing.T) {
	segs := segmentsFor(t, "reno")
	o1, o2 := quickOpts(dsl.Reno()), quickOpts(dsl.Reno())
	o2.Seed = 99
	r1, err := Synthesize(context.Background(), segs, o1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(context.Background(), segs, o2)
	if err != nil {
		t.Fatal(err)
	}
	// Both runs must converge to *good* handlers even if not identical.
	if math.IsInf(r1.Distance, 1) || math.IsInf(r2.Distance, 1) {
		t.Error("a seeded run returned a diverging handler")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	segs := segmentsFor(t, "reno")
	if _, err := Synthesize(context.Background(), segs, Options{}); err == nil {
		t.Error("missing DSL accepted")
	}
	if _, err := Synthesize(context.Background(), nil, quickOpts(dsl.Reno())); err == nil {
		t.Error("empty segments accepted")
	}
}

func TestStatsAreCoherent(t *testing.T) {
	segs := segmentsFor(t, "reno")
	res, err := Synthesize(context.Background(), segs, quickOpts(dsl.Reno()))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SpaceBuckets < 5 {
		t.Errorf("only %d non-empty buckets", st.SpaceBuckets)
	}
	if len(st.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	sum := 0
	for i, it := range st.Iterations {
		if it.Index != i+1 {
			t.Errorf("iteration %d has index %d", i, it.Index)
		}
		if it.Kept > len(it.Ranking) {
			t.Errorf("kept %d > ranked %d", it.Kept, len(it.Ranking))
		}
		for j := 1; j < len(it.Ranking); j++ {
			if it.Ranking[j].Score < it.Ranking[j-1].Score {
				t.Errorf("iteration %d ranking not sorted", it.Index)
			}
		}
		sum += it.HandlersScored
	}
	if sum != st.HandlersScored {
		t.Errorf("per-iteration handlers %d != total %d", sum, st.HandlersScored)
	}
	// N grows 8x, segments grow by 2 (capped by availability).
	if len(st.Iterations) >= 2 {
		it0, it1 := st.Iterations[0], st.Iterations[1]
		if it1.SamplesPerBucket != it0.SamplesPerBucket*8 {
			t.Errorf("N did not grow 8x: %d -> %d", it0.SamplesPerBucket, it1.SamplesPerBucket)
		}
		if it1.Segments < it0.Segments {
			t.Errorf("segment count shrank: %d -> %d", it0.Segments, it1.Segments)
		}
	}
}

// TestObsReportMatchesStats is the single-source-of-truth check: the obs
// run report's iteration records, counters and phase counts must agree
// exactly with the SearchStats the same run returned — both derive from the
// one bookkeeping path in endIteration.
func TestObsReportMatchesStats(t *testing.T) {
	segs := segmentsFor(t, "reno")
	reg := obs.New()
	opts := quickOpts(dsl.Reno())
	opts.Obs = reg
	res, err := Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := reg.Report()

	recs := rep.Records["core.iteration"]
	if len(recs) != len(res.Stats.Iterations) {
		t.Fatalf("report has %d iteration records, SearchStats has %d",
			len(recs), len(res.Stats.Iterations))
	}
	for i, raw := range recs {
		ir, ok := raw.(IterationReport)
		if !ok {
			t.Fatalf("record %d is %T, want IterationReport", i, raw)
		}
		it := res.Stats.Iterations[i]
		if ir.Index != it.Index || ir.HandlersScored != it.HandlersScored ||
			ir.Kept != it.Kept || len(ir.Ranking) != len(it.Ranking) {
			t.Errorf("iteration %d: record %+v disagrees with stats %+v", i, ir, it)
		}
		for j, r := range it.Ranking {
			if ir.Ranking[j].Ops != r.Ops.String() || float64(ir.Ranking[j].Score) != r.Score {
				t.Errorf("iteration %d rank %d: %+v vs %+v", i, j, ir.Ranking[j], r)
				break
			}
		}
	}
	if got := rep.Counters["core.handlers_scored"]; got != int64(res.Stats.HandlersScored) {
		t.Errorf("handlers counter = %d, stats = %d", got, res.Stats.HandlersScored)
	}
	if got := rep.Counters["core.sketches_scored"]; got != int64(res.Stats.SketchesScored) {
		t.Errorf("sketches counter = %d, stats = %d", got, res.Stats.SketchesScored)
	}
	if got := rep.Phases["core.iteration"].Count; got != int64(len(res.Stats.Iterations)) {
		t.Errorf("iteration phase count = %d, stats = %d", got, len(res.Stats.Iterations))
	}
	for _, phase := range []string{"core.synthesize", "core.select_segments", "core.score", "core.final_distance"} {
		if rep.Phases[phase].Count == 0 {
			t.Errorf("phase %s missing from report", phase)
		}
	}
	// The gauge tracks the best scoring-time distance (over the sampled
	// segments), so it need not equal res.Distance (full set) — but it must
	// be a positive finite trajectory endpoint.
	if g := rep.Gauges["core.best_distance"]; !(g > 0) || math.IsInf(g, 0) {
		t.Errorf("best distance gauge = %v", g)
	}
	if rep.Counters["core.completions_sampled"] == 0 {
		t.Error("completions counter empty")
	}
	if rep.Counters["core.worker_busy_ns"] == 0 {
		t.Error("worker busy-time counter empty")
	}
	if rep.Counters["enum.candidates"] == 0 || rep.Counters["enum.sketches"] == 0 {
		t.Error("enum counters empty — enumerators not threaded")
	}
}

// TestObsProgressStream checks that an attached progress sink sees one line
// per refinement iteration (the tools' -v path).
func TestObsProgressStream(t *testing.T) {
	segs := segmentsFor(t, "reno")
	reg := obs.New()
	var buf syncBuffer
	reg.Attach(obs.NewProgressSink(&buf))
	opts := quickOpts(dsl.Reno())
	opts.Obs = reg
	res, err := Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Count(buf.String(), "iteration ")
	if got != len(res.Stats.Iterations) {
		t.Errorf("progress lines = %d, iterations = %d:\n%s", got, len(res.Stats.Iterations), buf.String())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for sink output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestBudgetExhaustionStillReturns(t *testing.T) {
	segs := segmentsFor(t, "reno")
	opts := quickOpts(dsl.Reno())
	opts.MaxHandlers = 300 // tiny budget: stop after iteration 1
	res, err := Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BudgetExhausted {
		t.Error("budget flag not set")
	}
	if res.Handler == nil || math.IsInf(res.Distance, 1) {
		t.Error("no usable handler under budget exhaustion")
	}
}

func TestRankOf(t *testing.T) {
	it := IterationStats{Ranking: []BucketRank{
		{Ops: dsl.OpSet(0).With(dsl.OpAdd)},
		{Ops: dsl.OpSet(0).With(dsl.OpMul)},
	}}
	if got := it.RankOf(dsl.OpSet(0).With(dsl.OpMul)); got != 2 {
		t.Errorf("RankOf = %d, want 2", got)
	}
	if got := it.RankOf(dsl.OpSet(0).With(dsl.OpDiv)); got != 0 {
		t.Errorf("RankOf(absent) = %d, want 0", got)
	}
}

func TestCompletionsCrossProduct(t *testing.T) {
	sk := dsl.MustParse("c1*mss")
	pool := []float64{1, 2, 3}
	got := completions(sk, pool, 1, 100, 0)
	if len(got) != 3 {
		t.Fatalf("1-hole completions = %d, want 3", len(got))
	}
	sk2 := dsl.MustParse("c1*mss + c2*acked")
	got2 := completions(sk2, pool, 2, 100, 0)
	if len(got2) != 9 {
		t.Fatalf("2-hole completions = %d, want 9", len(got2))
	}
	seen := map[[2]float64]bool{}
	for _, v := range got2 {
		seen[[2]float64{v[0], v[1]}] = true
	}
	if len(seen) != 9 {
		t.Errorf("cross product has duplicates: %d unique", len(seen))
	}
	// A hole-free sketch is its own single completion, whatever the pool.
	for _, p := range [][]float64{pool, nil} {
		if got := completions(dsl.MustParse("cwnd + reno-inc"), p, 0, 100, 0); len(got) != 1 || len(got[0]) != 0 {
			t.Errorf("hole-free completions (pool of %d) = %v, want one empty assignment", len(p), got)
		}
	}
}

func TestCompletionsSampledDeterministic(t *testing.T) {
	sk := dsl.MustParse("c1*mss + c2*acked + c3*cwnd")
	pool := dsl.DefaultConstants()
	a := completions(sk, pool, 3, 20, 7)
	b := completions(sk, pool, 3, 20, 7)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("sampled completions = %d/%d, want 20", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("sampled completions not deterministic")
			}
		}
	}
	if got := completions(sk, nil, 3, 20, 7); got != nil {
		t.Error("empty pool should produce no completions")
	}
}

// TestSynthesizeEmptyPoolScoresHoleFree: with no constants to fill holes,
// the search still scores every hole-free sketch, and the completions
// counter (constant completions only) stays at zero.
func TestSynthesizeEmptyPoolScoresHoleFree(t *testing.T) {
	segs := segmentsFor(t, "reno")
	d := *dsl.Reno()
	d.Constants = nil
	reg := obs.New()
	opts := quickOpts(&d)
	opts.Obs = reg
	res, err := Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Handler == nil || res.Handler.Holes() != 0 || math.IsInf(res.Distance, 1) {
		t.Fatalf("no hole-free winner: %v at %v", res.Handler, res.Distance)
	}
	if res.Stats.HandlersScored == 0 {
		t.Error("no handlers scored")
	}
	if got := reg.Report().Counters["core.completions_sampled"]; got != 0 {
		t.Errorf("completions_sampled = %d with an empty pool, want 0", got)
	}
}

func TestVegasTraceGetsVegasStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run")
	}
	segs := segmentsFor(t, "vegas")
	opts := quickOpts(dsl.Vegas())
	opts.MaxHandlers = 6000
	opts.ScanBudget = 15000 // the vegas DSL is the largest; keep the test quick
	res, err := Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Vegas holds a near-flat window between losses; the synthesized
	// handler must track the trace far better than Reno's +1/RTT growth.
	renoD, _ := replay.NewScorer(segs, dist.DTW{}).Score(dsl.MustParse("cwnd + reno-inc"), math.Inf(1))
	if !(res.Distance < renoD) {
		t.Errorf("vegas synthesis %q (%.1f) not better than reno handler (%.1f)",
			res.Handler, res.Distance, renoD)
	}
	t.Logf("vegas handler: %s (distance %.2f)", res.Handler, res.Distance)
}

func TestBudgetShare(t *testing.T) {
	if budgetShare(100, 10) != 10 {
		t.Error("even split wrong")
	}
	if budgetShare(5, 10) != 1 {
		t.Error("floor at 1")
	}
	if budgetShare(100, 0) != 0 {
		t.Error("zero buckets")
	}
	// Regression: ceiling division — an uneven split must never round a
	// bucket's share down to a value that starves the tail of the budget,
	// and every bucket keeps a nonzero share whenever budget remains.
	if got := budgetShare(7, 3); got != 3 {
		t.Errorf("budgetShare(7,3) = %d, want 3 (ceiling)", got)
	}
	if got := budgetShare(1, 7); got != 1 {
		t.Errorf("budgetShare(1,7) = %d, want 1", got)
	}
	// Regression: a depleted or overdrawn budget must yield 0, not a
	// phantom per-bucket allowance of 1.
	if got := budgetShare(0, 5); got != 0 {
		t.Errorf("budgetShare(0,5) = %d, want 0", got)
	}
	if got := budgetShare(-3, 5); got != 0 {
		t.Errorf("budgetShare(-3,5) = %d, want 0", got)
	}
}
