package dist

import (
	"math"
	"math/rand"
	"testing"
)

// TestOutcomeStageConsistency sweeps cutoffs across every metric and pins
// the Outcome contract: the exact flag mirrors StageFull, a full compute
// matches Distance bit for bit, and inexact outcomes carry a saved-cell
// attribution.
func TestOutcomeStageConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		a := randomSeries(rng, 150)
		b := randomSeries(rng, 150)
		for _, m := range Metrics() {
			p := Prepare(m, a)
			sc := NewScratch()
			exactD := m.Distance(a, b)
			for _, frac := range []float64{0.2, 0.9, 1.1, math.Inf(1)} {
				d, o := PreparedDistanceDetail(m, p, b, exactD*frac, sc)
				if o.Exact() != (o.Stage == StageFull) {
					t.Fatalf("%s: Exact()=%v but stage %v", m.Name(), o.Exact(), o.Stage)
				}
				if o.Exact() && d != exactD {
					t.Fatalf("%s: full compute %v != exact %v", m.Name(), d, exactD)
				}
				if o.Saved < 0 || o.Cells < 0 {
					t.Fatalf("%s: negative cell attribution: %+v", m.Name(), o)
				}
				if !o.Exact() && (o.Stage == StageLBKim || o.Stage == StageLBKeogh) && o.Saved <= 0 {
					t.Fatalf("%s: lower bound at %v saved %d cells", m.Name(), o.Stage, o.Saved)
				}
			}
		}
	}
}

// TestOutcomeCellAccounting: a full DTW pass computes exactly the band's
// cell count; an abandon's computed+saved cells sum to it.
func TestOutcomeCellAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomSeries(rng, 200)
	b := randomSeries(rng, 200)
	m := DTW{}
	p := Prepare(m, a)
	sc := NewScratch()
	exactD := m.Distance(a, b)

	d, full := PreparedDistanceDetail(m, p, b, math.Inf(1), sc)
	if d != exactD || full.Stage != StageFull {
		t.Fatalf("uncut pass: (%v, %+v), want exact full compute", d, full)
	}
	if full.Cells <= 0 || full.Saved != 0 {
		t.Fatalf("full pass cells=%d saved=%d, want >0 and 0", full.Cells, full.Saved)
	}

	// A tight cutoff must settle early on one of the pruning stages, with
	// the attribution covering the whole band.
	_, cut := PreparedDistanceDetail(m, p, b, exactD*0.01, sc)
	if cut.Stage == StageFull {
		t.Fatalf("1%% cutoff still computed fully: %+v", cut)
	}
	if got := cut.Cells + cut.Saved; got != full.Cells {
		t.Errorf("abandon cells %d + saved %d = %d, want the full band %d",
			cut.Cells, cut.Saved, got, full.Cells)
	}
	if cut.Stage == StageAbandon && cut.Row <= 0 {
		t.Errorf("DP abandon without a row: %+v", cut)
	}
}

// TestOutcomeStageStrings pins the labels the ledger and funnel render.
func TestOutcomeStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageFull:    "full",
		StageLBKim:   "lb_kim",
		StageLBKeogh: "lb_keogh",
		StageAbandon: "abandon",
	}
	for s, label := range want {
		if got := s.String(); got != label {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, label)
		}
	}
	if int(NumStages) != len(want) {
		t.Errorf("NumStages = %d, want %d", NumStages, len(want))
	}
}

// TestOutcomeLBStages: degenerate flat-vs-far series trigger the cheap
// lower bounds before any DP work, and the outcome says which one fired.
func TestOutcomeLBStages(t *testing.T) {
	flat := ramp(100, 0, 5)
	far := ramp(100, 0, 500)
	m := DTW{}
	p := Prepare(m, flat)
	// First-point gap alone is 495 >> cutoff, so LB_Kim settles it.
	d, o := PreparedDistanceDetail(m, p, far, 1.0, NewScratch())
	if o.Stage != StageLBKim && o.Stage != StageLBKeogh {
		t.Fatalf("far series not settled by a lower bound: (%v, %+v)", d, o)
	}
	if o.Cells != 0 {
		t.Errorf("lower bound computed %d DP cells", o.Cells)
	}
	if o.Saved <= 0 {
		t.Errorf("lower bound saved %d cells, want the whole band", o.Saved)
	}
}
