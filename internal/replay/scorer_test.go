package replay

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/trace"
)

var scorerHandlers = []string{
	"cwnd + reno-inc",
	"cwnd + 0.5*reno-inc",
	"mss",
	"cwnd + cwnd",
	"cwnd/(acked - acked)", // diverges
	"cwnd",
}

// evalTotal is the reference path: replay with dsl.Eval (SynthesizeEnvs)
// and measure with the metric's plain Distance. The register-VM Scorer
// must reproduce it bit for bit.
func evalTotal(h *dsl.Node, segs []*trace.Segment, m dist.Metric) float64 {
	var total float64
	for _, seg := range segs {
		synth, err := SynthesizeEnvs(h, seg, Envs(seg))
		if err != nil {
			return math.Inf(1)
		}
		total += m.Distance(seg.Series(), synth)
		if math.IsInf(total, 1) {
			return total
		}
	}
	return total
}

// TestScorerMatchesClosurePath: with no cutoff, the VM-backed Score must
// reproduce the Eval replay path (Synthesize) bit for bit for every metric
// on real traces — the end-to-end form of the FuzzProgramVsEval exactness
// promise.
func TestScorerMatchesClosurePath(t *testing.T) {
	segs := renoSegments(t)
	for _, m := range dist.Metrics() {
		sc := NewScorer(segs, m)
		for _, src := range scorerHandlers {
			h := dsl.MustParse(src)
			got, exact := sc.Score(h, math.Inf(1))
			if !exact {
				t.Fatalf("%s %q: Score(+Inf) not exact", m.Name(), src)
			}
			if want := evalTotal(h, segs, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %q: Score %v != Eval path %v", m.Name(), src, got, want)
			}
		}
	}
}

// TestSegmentScoreMatchesClosurePath checks per-segment scores — a
// one-segment Scorer, as Figure 4's breakdown uses — against the Eval
// replay of that segment alone.
func TestSegmentScoreMatchesClosurePath(t *testing.T) {
	segs := renoSegments(t)
	m := dist.DTW{}
	h := dsl.MustParse("cwnd + reno-inc")
	for i := range segs {
		got, exact := NewScorer(segs[i:i+1], m).Score(h, math.Inf(1))
		if !exact {
			t.Fatalf("segment %d: not exact at +Inf", i)
		}
		if want := evalTotal(h, segs[i:i+1], m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("segment %d: score %v != Eval path %v", i, got, want)
		}
	}
}

// TestScorerCompilesOncePerSketch: repeated Score and CompileSketch calls
// with the same canonical expression must hit the scorer's program cache
// instead of recompiling per call.
func TestScorerCompilesOncePerSketch(t *testing.T) {
	segs := renoSegments(t)
	reg := obs.New()
	dsl.Observe(reg)
	defer dsl.Observe(nil)
	sc := NewScorer(segs, dist.DTW{})
	h := dsl.MustParse("cwnd + 0.7*reno-inc")
	for i := 0; i < 5; i++ {
		sc.Score(h, math.Inf(1))
		sc.CompileSketch(dsl.MustParse("cwnd + 0.7*reno-inc"))
	}
	if got := reg.Report().Counters["dsl.progs_compiled"]; got != 1 {
		t.Errorf("dsl.progs_compiled = %d across repeated scoring, want 1", got)
	}
}

// TestPrologueCacheAcrossCompletions: scoring many completions of one sketch through CompileSketch — sharing
// one program and its cached per-segment prologue columns — must
// bit-match binding each completion and scoring it on a fresh Scorer, and
// the prologue cache must actually get hits.
func TestPrologueCacheAcrossCompletions(t *testing.T) {
	segs := renoSegments(t)
	reg := obs.New()
	Observe(reg)
	defer Observe(nil)
	sketches := []string{
		"cwnd + c1*reno-inc",
		"cwnd + ({vegas-diff < c1} ? c2*reno-inc : 0)",
		"c1*mss + c2*time-since-loss*ack-rate",
	}
	valSets := [][]float64{{0.5, 1}, {0.7, 2}, {1, 0.1}, {2, 8}, {0, 0}}
	sc := NewScorer(segs, dist.DTW{})
	for _, src := range sketches {
		sk := dsl.MustParse(src)
		cs := sc.CompileSketch(sk)
		for _, vals := range valSets {
			vals = vals[:sk.Holes()]
			got, exact := scoreOne(cs, vals, math.Inf(1), nil)
			if !exact {
				t.Fatalf("%q %v: not exact at +Inf", src, vals)
			}
			bound, err := sk.Bind(vals)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewScorer(segs, dist.DTW{}).Score(bound, math.Inf(1))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%q %v: shared-prologue score %v != fresh-scorer score %v", src, vals, got, want)
			}
		}
	}
	rep := reg.Report()
	if rep.Counters["replay.prologue_hits"] == 0 {
		t.Error("no prologue-cache hits across completions of one sketch")
	}
	if rep.Counters["replay.prologue_misses"] == 0 {
		t.Error("no prologue-cache misses recorded")
	}
	if rep.Counters["replay.instrs_executed"] == 0 {
		t.Error("no VM instructions recorded")
	}
}

// TestScorerCutoffContract sweeps cutoffs around each handler's exact total:
// exact=true results must equal the full sum, and inexact results must be
// lower bounds on it.
func TestScorerCutoffContract(t *testing.T) {
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})
	for _, src := range scorerHandlers {
		h := dsl.MustParse(src)
		want, _ := sc.Score(h, math.Inf(1))
		for _, frac := range []float64{0, 0.3, 0.9, 0.9999, 1.0001, 2} {
			cutoff := want * frac
			d, exact := sc.Score(h, cutoff)
			if exact && d != want {
				t.Fatalf("%q cutoff=%v: exact result %v != full sum %v", src, cutoff, d, want)
			}
			if !exact && !(d <= want) {
				t.Fatalf("%q cutoff=%v: abandoned result %v exceeds full sum %v", src, cutoff, d, want)
			}
		}
		// A cutoff just above the exact sum must come back exact.
		if !math.IsInf(want, 1) {
			above := math.Nextafter(want, math.Inf(1))
			if d, exact := sc.Score(h, above*1.01); !exact || d != want {
				t.Fatalf("%q: cutoff above sum gave (%v, %v), want (%v, true)", src, d, exact, want)
			}
		}
	}
}

// TestScorerConcurrent hammers one scorer from many goroutines; results must
// match the serial values (the pool must not leak state between scores).
func TestScorerConcurrent(t *testing.T) {
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})
	want := make([]float64, len(scorerHandlers))
	for i, src := range scorerHandlers {
		want[i], _ = sc.Score(dsl.MustParse(src), math.Inf(1))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, src := range scorerHandlers {
					d, exact := sc.Score(dsl.MustParse(src), math.Inf(1))
					if !exact || d != want[i] {
						t.Errorf("concurrent %q: (%v, %v), want (%v, true)", src, d, exact, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScorerNilMetricDefaultsDTW mirrors core's default.
func TestScorerNilMetricDefaultsDTW(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd + reno-inc")
	got, _ := NewScorer(segs, nil).Score(h, math.Inf(1))
	want, _ := NewScorer(segs, dist.DTW{}).Score(h, math.Inf(1))
	if got != want {
		t.Errorf("nil metric %v != DTW %v", got, want)
	}
}

// TestScoreDetailOutcome pins the candidate-outcome plumbing: an uncut
// score settles fully with one outcome per segment, a tight cutoff settles
// inexactly at a pruning stage, and a diverging handler is flagged.
func TestScoreDetailOutcome(t *testing.T) {
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})

	var co CandidateOutcome
	h := dsl.MustParse("cwnd + reno-inc")
	cs := sc.CompileSketch(h)
	d, exact := scoreOne(cs, nil, math.Inf(1), &co)
	if !exact || !co.Exact || co.Diverged {
		t.Fatalf("uncut score: exact=%v co=%+v", exact, co)
	}
	if co.Distance != d || co.Stage != dist.StageFull {
		t.Errorf("outcome (%v, %v), want (%v, full)", co.Distance, co.Stage, d)
	}
	if len(co.Segments) != len(segs) {
		t.Errorf("outcome has %d segment entries, want %d", len(co.Segments), len(segs))
	}
	if co.Cells == 0 {
		t.Error("full score attributed no cells")
	}
	for i, o := range co.Segments {
		if o.Stage != dist.StageFull {
			t.Errorf("segment %d stage = %v, want full", i, o.Stage)
		}
	}

	// Reuse the same scratch outcome: a tight cutoff settles inexactly and
	// the reset leaves no stale segments behind.
	far := dsl.MustParse("cwnd + cwnd")
	csFar := sc.CompileSketch(far)
	d2, exact2 := scoreOne(csFar, nil, d*1e-6, &co)
	if exact2 {
		t.Fatalf("tight cutoff still exact: %v", d2)
	}
	if co.Exact || co.Stage == dist.StageFull {
		t.Errorf("inexact settle with full-stage outcome: %+v", co)
	}
	if co.Segment >= len(segs) || len(co.Segments) > len(segs) {
		t.Errorf("stale segment data after reuse: %+v", co)
	}

	div := dsl.MustParse("cwnd/(acked - acked)")
	csDiv := sc.CompileSketch(div)
	if _, _ = scoreOne(csDiv, nil, math.Inf(1), &co); !co.Diverged {
		t.Errorf("diverging handler not flagged: %+v", co)
	}
	if !math.IsInf(co.Distance, 1) {
		t.Errorf("diverged distance = %v, want +Inf", co.Distance)
	}
}

// TestScoreDetailNilOutcome: a one-lane call without an outcome stays
// bit-identical to one with an outcome, across cutoff regimes.
func TestScoreDetailNilOutcome(t *testing.T) {
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})
	h := dsl.MustParse("cwnd + 0.5*reno-inc")
	cs := sc.CompileSketch(h)
	var co CandidateOutcome
	for _, cutoff := range []float64{math.Inf(1), 100, 1} {
		d1, e1 := scoreOne(cs, nil, cutoff, nil)
		d2, e2 := scoreOne(cs, nil, cutoff, &co)
		if math.Float64bits(d1) != math.Float64bits(d2) || e1 != e2 {
			t.Errorf("cutoff %v: nil-outcome (%v,%v) != outcome (%v,%v)", cutoff, d1, e1, d2, e2)
		}
	}
}
