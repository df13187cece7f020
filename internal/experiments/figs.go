package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/enum"
	"repro/internal/expr"
	"repro/internal/replay"
)

// Fig4Result reproduces the BBR pulse case study (§5.2, Figure 4): the
// synthesized and fine-tuned BBR handlers scored per trace segment. The
// paper's observation is that neither dominates — the fine-tuned handler's
// aligned pulses win on some traces while DTW's shift-tolerance lets the
// synthesized handler win on others.
type Fig4Result struct {
	// Synth and Fine are the two handlers compared.
	Synth, Fine string
	// SynthWins / FineWins count segments each handler scored lower on.
	SynthWins, FineWins int
	// BestSynthSegment is a segment where the synthesized handler beat
	// the fine-tuned one hardest (Figure 4b), and BestFineSegment the
	// converse (Figure 4a). Distances are (synth, fine) pairs.
	BestSynthSegment [2]float64
	BestFineSegment  [2]float64
}

// Fig4SynthesizedBBR is the paper's synthesized BBR handler (Table 2):
// cwnd-parity pulses on top of a 2x BDP baseline. Constants are as
// published; the windows in this reproduction are bytes, so the parity
// test uses the window in MSS units via cwnd % (2.7*mss).
const Fig4SynthesizedBBR = "2*ack-rate*min-rtt + ({cwnd % 2.7*mss = 0} ? 2.05*cwnd : mss)"

// Fig4 scores both BBR handlers on every BBR trace segment.
func Fig4(s Scale) (*Fig4Result, error) {
	ds, err := Collect("bbr", s)
	if err != nil {
		return nil, err
	}
	fine, err := expr.Lookup("bbr")
	if err != nil {
		return nil, err
	}
	synthH := dsl.MustParse(Fig4SynthesizedBBR)
	fineH := fine.Handler()
	m := dist.DTW{}
	res := &Fig4Result{Synth: Fig4SynthesizedBBR, Fine: fine.Source}
	bestSynthGap, bestFineGap := math.Inf(-1), math.Inf(-1)
	for i := range ds.Segments {
		scorer := replay.NewScorer(ds.Segments[i:i+1], m)
		sd, _ := scorer.Score(synthH, math.Inf(1))
		fd, _ := scorer.Score(fineH, math.Inf(1))
		if math.IsInf(sd, 1) || math.IsInf(fd, 1) {
			continue
		}
		if sd < fd {
			res.SynthWins++
			if fd-sd > bestSynthGap {
				bestSynthGap = fd - sd
				res.BestSynthSegment = [2]float64{sd, fd}
			}
		} else {
			res.FineWins++
			if sd-fd > bestFineGap {
				bestFineGap = sd - fd
				res.BestFineSegment = [2]float64{sd, fd}
			}
		}
	}
	return res, nil
}

// FormatFig4 renders the case study.
func FormatFig4(r *Fig4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "synthesized: %s\nfine-tuned : %s\n", r.Synth, r.Fine)
	fmt.Fprintf(&b, "segments won — synthesized: %d, fine-tuned: %d\n", r.SynthWins, r.FineWins)
	if r.FineWins > 0 {
		fmt.Fprintf(&b, "fig 4a (fine-tuned wins): synth %.2f vs fine %.2f\n",
			r.BestFineSegment[0], r.BestFineSegment[1])
	}
	if r.SynthWins > 0 {
		fmt.Fprintf(&b, "fig 4b (synthesized wins): synth %.2f vs fine %.2f\n",
			r.BestSynthSegment[0], r.BestSynthSegment[1])
	}
	return b.String()
}

// Fig5Result reproduces the HTCP case study (Figure 5): a plain
// Reno-variant handler achieves a low distance on HTCP traces despite the
// inflection point in the window growth, which is why Abagnale does not
// explore more complex handlers for HTCP.
type Fig5Result struct {
	// RenoDistance is "cwnd + reno-inc" scored over the HTCP segments.
	RenoDistance float64
	// FineDistance is the fine-tuned HTCP handler over the same segments.
	FineDistance float64
	// Segments is the segment count.
	Segments int
	// GapPercent is how much worse (positive) or better the plain Reno
	// handler is, in percent of the fine-tuned distance.
	GapPercent float64
}

// Fig5 scores the two handlers over HTCP traces.
func Fig5(s Scale) (*Fig5Result, error) {
	ds, err := Collect("htcp", s)
	if err != nil {
		return nil, err
	}
	fine, err := expr.Lookup("htcp")
	if err != nil {
		return nil, err
	}
	scorer := replay.NewScorer(ds.Segments, dist.DTW{})
	reno, _ := scorer.Score(dsl.MustParse("cwnd + reno-inc"), math.Inf(1))
	fd, _ := scorer.Score(fine.Handler(), math.Inf(1))
	return &Fig5Result{
		RenoDistance: reno,
		FineDistance: fd,
		Segments:     len(ds.Segments),
		GapPercent:   100 * (reno - fd) / fd,
	}, nil
}

// FormatFig5 renders the case study.
func FormatFig5(r *Fig5Result) string {
	return fmt.Sprintf(
		"reno-variant handler distance: %.2f\nfine-tuned HTCP distance:      %.2f\ngap: %+.1f%% over %d segments\n",
		r.RenoDistance, r.FineDistance, r.GapPercent, r.Segments)
}

// Fig6Row is one (student CCA, DSL variant) synthesis outcome (§6.3).
type Fig6Row struct {
	CCA      string
	DSLLabel string
	Handler  string
	Distance float64
	Err      error
}

// fig6DSL builds the Figure 6 DSL variants: Delay-7 and Delay-11 (depth 4,
// 7 or 11 nodes, no vegas macro) and Vegas-11 (depth 5, 11 nodes, with the
// vegas-diff macro).
func fig6DSL(label string) *dsl.DSL {
	switch label {
	case "Delay-7":
		d := dsl.Delay()
		d.MaxNodes = 7
		return d
	case "Delay-11":
		d := dsl.Delay()
		d.MaxNodes = 11
		return d
	case "Vegas-11":
		d := dsl.Vegas()
		d.MaxDepth = 5
		d.MaxNodes = 11
		return d
	default:
		panic("unknown fig6 DSL " + label)
	}
}

// Fig6Labels lists the DSL variants in presentation order.
func Fig6Labels() []string { return []string{"Delay-7", "Delay-11", "Vegas-11"} }

// Fig6 synthesizes the two student CCAs the paper examines under each DSL
// variant, with equal search budgets — reproducing the effect that a
// richer DSL helps when its extra components matter (student 1) and hurts
// when they only enlarge the space (student 3).
func Fig6(s Scale, students []string) ([]Fig6Row, error) {
	if students == nil {
		students = []string{"student1", "student3"}
	}
	var rows []Fig6Row
	for _, st := range students {
		ds, err := Collect(st, s)
		if err != nil {
			return rows, err
		}
		for _, label := range Fig6Labels() {
			res, err := core.Synthesize(s.context(), ds.Segments, core.Options{
				DSL:         fig6DSL(label),
				MaxHandlers: s.MaxHandlers,
				ScanBudget:  s.ScanBudget,
				Seed:        s.Seed,
				Obs:         s.Obs,
			})
			row := Fig6Row{CCA: st, DSLLabel: label}
			if err != nil {
				row.Err = err
			} else {
				row.Handler = res.Handler.String()
				row.Distance = res.Distance
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFig6 renders the DSL-impact table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %10s  %s\n", "CCA", "DSL", "DTW dist", "handler")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-10s %-9s failed: %v\n", r.CCA, r.DSLLabel, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %-9s %10.2f  %s\n", r.CCA, r.DSLLabel, r.Distance, r.Handler)
	}
	return b.String()
}

// EfficiencyResult reproduces §6.1's search-efficiency accounting for the
// Reno DSL.
type EfficiencyResult struct {
	// SpaceSketches is the viable depth-3 Reno-DSL sketch count after all
	// enumeration pruning (the paper reports 1,617; our canonicalizer
	// differs in detail).
	SpaceSketches int
	// Buckets is the number of non-empty buckets.
	Buckets int
	// Iterations summarizes the refinement loop.
	Iterations []core.IterationStats
	// HandlersScored is the total concrete handlers evaluated.
	HandlersScored int
	// SketchesSampled is the number of sketches drawn across iterations.
	SketchesSampled int
	// FractionExplored is SketchesSampled / SpaceSketches.
	FractionExplored float64
	// Handler is the returned expression.
	Handler string
}

// Efficiency runs the instrumented Reno synthesis of §6.1.
func Efficiency(s Scale) (*EfficiencyResult, error) {
	ds, err := Collect("reno", s)
	if err != nil {
		return nil, err
	}
	d := dsl.Reno()
	space := enum.New(d).Count()
	res, err := core.Synthesize(s.context(), ds.Segments, core.Options{
		DSL:         d,
		MaxHandlers: s.MaxHandlers,
		ScanBudget:  s.ScanBudget,
		Seed:        s.Seed,
		Obs:         s.Obs,
	})
	if err != nil {
		return nil, err
	}
	out := &EfficiencyResult{
		SpaceSketches:    space,
		Buckets:          res.Stats.SpaceBuckets,
		Iterations:       res.Stats.Iterations,
		HandlersScored:   res.Stats.HandlersScored,
		SketchesSampled:  res.Stats.SketchesScored,
		Handler:          res.Handler.String(),
		FractionExplored: float64(res.Stats.SketchesScored) / float64(space),
	}
	return out, nil
}

// FormatEfficiency renders the §6.1 narrative numbers.
func FormatEfficiency(r *EfficiencyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reno-DSL viable sketches (depth 3): %d across %d non-empty buckets\n",
		r.SpaceSketches, r.Buckets)
	for _, it := range r.Iterations {
		fmt.Fprintf(&b, "iteration %d: N=%d, %d segments, %d handlers scored, %d buckets kept\n",
			it.Index, it.SamplesPerBucket, it.Segments, it.HandlersScored, it.Kept)
	}
	fmt.Fprintf(&b, "total: %d handlers from %d sketches (%.1f%% of the viable space)\n",
		r.HandlersScored, r.SketchesSampled, 100*r.FractionExplored)
	fmt.Fprintf(&b, "returned handler: %s\n", r.Handler)
	return b.String()
}
