package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Search settings every workload uses.
const (
	budget     = 20000 // handlers scored per trace
	searchSeed = 1
	minSegment = 16 // abagnale -min-segment default
)

// scenario is one simulated flow.
type scenario struct {
	cca  string
	rtt  time.Duration
	mbps float64
}

// grid is every CCA at every network setting.
func grid(ccas []string, nets []scenario) []scenario {
	var out []scenario
	for _, n := range nets {
		for _, c := range ccas {
			out = append(out, scenario{c, n.rtt, n.mbps})
		}
	}
	return out
}

func (s scenario) String() string {
	return fmt.Sprintf("%s-rtt%dms-bw%gmbps", s.cca, s.rtt/time.Millisecond, s.mbps)
}

// input is one generated trace: the pcap bytes the program sees, plus what
// the benchmark keeps to check and rate the program's answer.
//
// The pcaps stay in memory, as "pcap bytes in hand" says, and so share the
// heap with the in-process program: the larger live heap makes the
// garbage collector run less often than in a CLI process that streams one
// file. Reading the pcaps from disk instead gave about nine times as many
// GC cycles per cold trace and twice the run-to-run spread.
type input struct {
	name    string
	cca     string
	pcap    []byte
	packets int
	segs    []*trace.Segment // the benchmark's own analysis, for checks
	expert  float64          // distance of expr.Lookup(cca) on segs
}

// generate simulates each scenario for 10 s from the workload seed and
// scores the expert handler of each trace. The seed drives the 1 ms
// propagation jitter. There is no random loss: it moved a trace's segment
// count up to twofold between seeds, and with it the search's work, so
// per-seed results spread further apart than any bound the benchmark may
// set. Losses come from the bottleneck queue overflowing.
func generate(seed int64, scs []scenario) ([]*input, error) {
	var out []*input
	for i, sc := range scs {
		res, err := sim.Run(sim.Config{
			CCA:       sc.cca,
			Bandwidth: sc.mbps * 1e6 / 8,
			RTT:       sc.rtt,
			Duration:  10 * time.Second,
			Jitter:    time.Millisecond,
			Seed:      seed*1000 + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", sc, err)
		}
		raw, err := res.WritePcap()
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", sc, err)
		}
		tr, err := trace.AnalyzeBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", sc, err)
		}
		segs := tr.Split(minSegment)
		if len(segs) == 0 {
			return nil, fmt.Errorf("%s: no usable segments", sc)
		}
		ft, err := expr.Lookup(sc.cca)
		if err != nil {
			return nil, err
		}
		ex, exact := replay.NewScorer(segs, dist.DTW{}).Score(ft.Handler(), math.Inf(1))
		if !exact || !(ex > 0) || math.IsInf(ex, 0) {
			return nil, fmt.Errorf("%s: expert handler distance %v is unusable", sc, ex)
		}
		out = append(out, &input{
			name:    sc.String(),
			cca:     sc.cca,
			pcap:    raw,
			packets: len(res.Records),
			segs:    segs,
			expert:  ex,
		})
	}
	return out, nil
}

// setupInputs generates the inputs cfg.setupReps times and returns the
// last set with the median set-up time: workloads whose program has no
// set-up of its own report this input set-up (simulation, pcap encoding,
// expert scoring) as setup_s.
func setupInputs(cfg config, scs []scenario) ([]*input, float64, error) {
	var (
		ins   []*input
		times []float64
	)
	for r := 0; r < cfg.setupReps; r++ {
		t0 := time.Now()
		var err error
		if ins, err = generate(cfg.seed, scs); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ins, median(times), nil
}

// outcome is one handler the program produced.
type outcome struct {
	in      *input
	handler string
	dist    float64
	latency time.Duration
	err     error
}

// verify re-parses the handler as printed, re-scores it with a fresh
// exact scorer on the trace's segments and demands the reported distance
// bit for bit.
func verify(o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.handler == "" {
		return fmt.Errorf("%s: no handler", o.in.name)
	}
	h, err := dsl.Parse(o.handler)
	if err != nil {
		return fmt.Errorf("%s: printed handler %q does not parse: %w", o.in.name, o.handler, err)
	}
	d, exact := replay.NewScorer(o.in.segs, dist.DTW{}).Score(h, math.Inf(1))
	if !exact || math.Float64bits(d) != math.Float64bits(o.dist) {
		return fmt.Errorf("%s: handler %q re-scores to %v, reported %v", o.in.name, o.handler, d, o.dist)
	}
	return nil
}
