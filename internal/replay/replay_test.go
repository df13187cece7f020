package replay

import (
	"math"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// renoSegments builds real trace segments from a Reno simulation.
func renoSegments(t *testing.T) []*trace.Segment {
	t.Helper()
	res, err := sim.Run(sim.Config{
		CCA:       "reno",
		Bandwidth: 10e6 / 8,
		RTT:       40 * time.Millisecond,
		Duration:  30 * time.Second,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.AnalyzeRecords(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Split(16)
	if len(segs) < 2 {
		t.Fatalf("only %d segments", len(segs))
	}
	return segs
}

func TestSynthesizeRenoHandlerTracksTrace(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd + reno-inc")
	sc := NewScorer(segs, dist.DTW{})
	// The true-family handler should be close; an absurd handler far.
	good, _ := sc.Score(h, math.Inf(1))
	bad, _ := sc.Score(dsl.MustParse("mss"), math.Inf(1))
	if !(good < bad) {
		t.Errorf("reno handler distance %.2f not below constant-window distance %.2f", good, bad)
	}
	crazy, _ := sc.Score(dsl.MustParse("cwnd + cwnd"), math.Inf(1))
	if !(good < crazy) {
		t.Errorf("reno handler distance %.2f not below doubling handler %.2f", good, crazy)
	}
}

func TestSynthesizeSeriesShape(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd + 0.7*reno-inc")
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(segs[0].Samples) {
		t.Fatalf("series length %d != %d samples", s.Len(), len(segs[0].Samples))
	}
	// Reno-style growth: values non-decreasing within a loss-free segment.
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1]-1e-9 {
			t.Fatalf("reno replay decreased at %d: %v -> %v", i, s.Values[i-1], s.Values[i])
		}
	}
}

func TestSynthesizeStartsFromObservedWindow(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd") // identity handler holds the initial window
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := segs[0].Samples[0].Cwnd / segs[0].MSS
	for _, v := range s.Values {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("identity handler drifted: %v vs %v", v, want)
		}
	}
}

func TestDivergingHandler(t *testing.T) {
	segs := renoSegments(t)
	// acked - acked = 0 in the denominator: immediate division blowup.
	h := dsl.MustParse("cwnd/(acked - acked)")
	if _, err := Synthesize(h, segs[0]); err == nil {
		t.Error("divide-by-zero handler did not diverge")
	}
	sc := NewScorer(segs, dist.DTW{})
	if d, _ := NewScorer(segs[:1], dist.DTW{}).Score(h, math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("diverging handler distance = %v, want +Inf", d)
	}
	if d, _ := sc.Score(h, math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("diverging handler total = %v, want +Inf", d)
	}
}

func TestClampPreventsExplosion(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd*cwnd/mss") // super-exponential growth
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Values {
		if v > maxCwndPkts || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("clamp failed: %v", v)
		}
	}
}

func TestEnvsFallBackRTT(t *testing.T) {
	seg := &trace.Segment{MSS: 1448, Samples: []trace.Sample{
		{Time: 0, Cwnd: 2 * 1448, Acked: 1448, MinRTT: 40 * time.Millisecond},
	}}
	envs := Envs(seg)
	if envs[0].RTT != 0.040 {
		t.Errorf("zero RTT not backfilled from MinRTT: %v", envs[0].RTT)
	}
}

// TestEnvsFallBackSegmentMinRTT: on the first samples of a capture even
// MinRTT can still be zero; the fallback chain must reach the segment-wide
// minimum so rtts-since-loss does not divide by zero and spuriously
// diverge a handler.
func TestEnvsFallBackSegmentMinRTT(t *testing.T) {
	seg := &trace.Segment{MSS: 1448, Samples: []trace.Sample{
		{Time: 0, Cwnd: 2 * 1448, Acked: 1448, TimeSinceLoss: time.Second},
		{Time: time.Millisecond, Cwnd: 2 * 1448, Acked: 1448, RTT: 50 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, TimeSinceLoss: time.Second},
	}}
	envs := Envs(seg)
	if envs[0].RTT != 0.040 {
		t.Errorf("RTT-less first sample = %v, want segment minimum 0.040", envs[0].RTT)
	}
	h := dsl.MustParse("cwnd + mss*rtts-since-loss")
	if _, err := Synthesize(h, seg); err != nil {
		t.Errorf("rtts-since-loss diverged on RTT-less first sample: %v", err)
	}
	// The columnar layout must see the same fallback.
	cols := NewCols(seg)
	for i := range seg.Samples {
		if cols.Sig[dsl.SigRTT][i] != envs[i].RTT {
			t.Errorf("cols RTT[%d] = %v != env RTT %v", i, cols.Sig[dsl.SigRTT][i], envs[i].RTT)
		}
	}
}

func TestSynthesizeEnvsMismatch(t *testing.T) {
	segs := renoSegments(t)
	if _, err := SynthesizeEnvs(dsl.Cwnd(), segs[0], nil); err == nil {
		t.Error("mismatched envs accepted")
	}
}

func TestBetterConstantScoresBetter(t *testing.T) {
	// On a Reno trace, the handler with Reno's true increment (1.0x)
	// should beat a far-off constant (0.1x) — the property Figure 3's
	// constant-error sweep relies on.
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})
	right, _ := sc.Score(dsl.MustParse("cwnd + reno-inc"), math.Inf(1))
	wrong, _ := sc.Score(dsl.MustParse("cwnd + 0.1*reno-inc"), math.Inf(1))
	if !(right < wrong) {
		t.Errorf("true constant %.2f not better than 0.1x %.2f", right, wrong)
	}
}

func TestClosedLoopRenoTracksTrace(t *testing.T) {
	segs := renoSegments(t)
	m := dist.DTW{}
	good := ClosedLoopTotalDistance(dsl.MustParse("cwnd + reno-inc"), segs, m)
	bad := ClosedLoopTotalDistance(dsl.MustParse("cwnd + cwnd"), segs, m)
	if !(good < bad) {
		t.Errorf("closed-loop reno %.2f not better than doubling %.2f", good, bad)
	}
}

func TestClosedLoopAckClocking(t *testing.T) {
	// A handler holding a window half the observed one must see roughly
	// half the acked bytes per step under closed-loop replay; its Reno
	// growth is therefore slower than under open-loop replay.
	segs := renoSegments(t)
	seg := segs[0]
	h := dsl.MustParse("cwnd + 2*reno-inc")
	open, err := Synthesize(h, seg)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := SynthesizeClosedLoop(h, seg)
	if err != nil {
		t.Fatal(err)
	}
	if open.Len() != closed.Len() {
		t.Fatal("length mismatch")
	}
	// Both replays start at the same window.
	if open.Values[0] != closed.Values[0] {
		t.Errorf("starting windows differ: %v vs %v", open.Values[0], closed.Values[0])
	}
}

func TestClosedLoopDivergenceHandling(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd/(acked - acked)")
	if d := ClosedLoopDistance(h, segs[0], dist.DTW{}); !math.IsInf(d, 1) {
		t.Errorf("diverging handler closed-loop distance = %v", d)
	}
}

func TestClosedLoopIdentityHolds(t *testing.T) {
	segs := renoSegments(t)
	s, err := SynthesizeClosedLoop(dsl.Cwnd(), segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := s.Values[0]
	for _, v := range s.Values {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("identity handler drifted under closed loop")
		}
	}
}

func TestClosedLoopCannotOutpaceBottleneck(t *testing.T) {
	// Even an aggressive handler's ack-clocked deliveries are bounded by
	// the observed per-step acked bytes; its window growth per step is
	// therefore bounded by the open-loop replay of the same handler.
	segs := renoSegments(t)
	seg := segs[0]
	h := dsl.MustParse("cwnd + 2*reno-inc")
	open, _ := Synthesize(h, seg)
	closed, _ := SynthesizeClosedLoop(h, seg)
	for i := range open.Values {
		if closed.Values[i] > open.Values[i]+1e-9 {
			t.Fatalf("closed-loop exceeded open-loop at %d: %v > %v", i, closed.Values[i], open.Values[i])
		}
	}
}
