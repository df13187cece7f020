package replay

import (
	"math"

	"repro/internal/dist"
	"repro/internal/dsl"
)

// Lanes is the batch width of the lane-batched scoring path: how many
// constant-pool completions of one sketch ScoreBatchDetail executes per
// call through the K-wide VM (dsl.EvalSeriesBatch) and the multi-series
// distance kernel (dist.PreparedDistanceWithinGridBatch). A build-time
// constant so the lane loops compile with a fixed upper bound; the
// occupancy counters (replay.batches_executed, replay.lanes_filled)
// report how full the lanes run in practice.
const Lanes = 8

// batchScratch is one worker's reusable buffers for ScoreBatchDetail:
// lane-major value and grid slabs plus the compacted per-segment lane
// lists. Everything is slab-reused across calls — the steady state
// allocates nothing.
type batchScratch struct {
	values   []float64 // live-lane replay outputs, n values per lane
	grids    []float64 // live-lane resampled candidates, ResampleN per lane
	laneVals [][]float64
	laneGrid [][]float64
	valsC    [][]float64 // compacted constant vectors for the VM
	cutsC    []float64   // compacted per-lane segment cutoffs
	rows     []int
	oks      []bool
	segDs    []float64
	segOuts  []dist.Outcome
	segCuts  []float64
	totals   []float64
	live     []int
	live2    []int
	bex      *dsl.BatchExec
	exec     *dsl.Exec // scalar VM fallback for single-lane batches
	bdist    *dist.BatchScratch
	dist     *dist.Scratch // scalar fallback (empty segments, Series path)
}

func newBatchScratch() *batchScratch {
	return &batchScratch{
		bex:   dsl.NewBatchExec(),
		exec:  dsl.NewExec(),
		bdist: dist.NewBatchScratch(),
		dist:  dist.NewScratch(),
	}
}

// ScoreBatchDetail scores K = len(valsK) completions of the sketch (each
// a constant vector in Bind order; nil for a bound expression) in one
// lane-batched pass, and is the only way a handler is scored — Scorer.Score
// is a one-lane call. Every segment is replayed K lanes wide on the VM and
// the synthesized series are measured against the prepared segment by the
// multi-series distance kernel, under per-lane cutoffs. Segments
// accumulate into each lane's running total; the per-segment kernels and
// the cross-segment sum abandon once the total is provably >= the lane's
// cutoff. exacts[l] reports whether ds[l] is the exact full sum (true) or
// a lower bound on it (false). When outs is non-nil, outs[l] receives the
// lane's provenance and the lane is offered to the scorer's ledger.
//
// Lanes do not interact: lane l's results are bit-identical to a one-lane
// call with valsK[l] and cutoffs[l] (TestScoreBatchDetailMatchesScalar).
// A lane that settles (pruned, diverged, or cross-segment abandoned) leaves
// the live set and stops paying for replay and DP work on later segments.
// cutoffs, ds, and exacts must have at least K entries; outs may be nil or
// have at least K entries. With one live lane the scalar kernels run
// (Program.EvalSeries, dist.PreparedDistanceDetailGrid): the lane-major
// loops cost more than they amortize at width 1, and the two are pinned
// bit-identical.
func (cs *CompiledSketch) ScoreBatchDetail(valsK [][]float64, cutoffs []float64, ds []float64, exacts []bool, outs []CandidateOutcome) {
	k := len(valsK)
	if k == 0 {
		return
	}
	cBatches.Load().Inc()
	cLanes.Load().Add(int64(k))
	s := cs.s
	sc := s.pool.Get().(*batchScratch)
	defer s.pool.Put(sc)

	totals := grow(&sc.totals, k)
	segCuts := grow(&sc.segCuts, k)
	live := sc.live[:0]
	for l := 0; l < k; l++ {
		totals[l] = 0
		live = append(live, l)
		if outs != nil {
			outs[l].reset()
		}
	}
	last := len(s.segs) - 1

	// applySeg folds one segment outcome into lane l. It reports whether
	// the lane settled.
	applySeg := func(l int, d float64, o dist.Outcome, diverged bool, i int) bool {
		if outs != nil {
			out := &outs[l]
			out.Segments = append(out.Segments, o)
			out.Cells += o.Cells
			out.Saved += o.Saved
			out.Diverged = out.Diverged || diverged
		}
		if !o.Exact() {
			totals[l] += d
			ds[l], exacts[l] = totals[l], false
			if outs != nil {
				outs[l].settle(totals[l], false, o.Stage, i, o.Row)
				cs.offer(valsK[l], &outs[l])
			}
			return true
		}
		totals[l] += d
		if math.IsInf(totals[l], 1) {
			ds[l], exacts[l] = totals[l], true
			if outs != nil {
				outs[l].settle(totals[l], true, dist.StageFull, i, 0)
				cs.offer(valsK[l], &outs[l])
			}
			return true
		}
		if totals[l] >= cutoffs[l] && i < last {
			// Cross-segment abandon: the running sum of exact segment
			// distances already reaches the cutoff.
			ds[l], exacts[l] = totals[l], false
			if outs != nil {
				outs[l].settle(totals[l], false, dist.StageAbandon, i, 0)
				cs.offer(valsK[l], &outs[l])
			}
			return true
		}
		return false
	}

	for i := range s.segs {
		if len(live) == 0 {
			break
		}
		// The sub-cutoff over-approximates cutoff-total by a ulp so a
		// segment is never abandoned when the true total is < cutoff.
		for _, l := range live {
			segCuts[l] = math.Nextafter(cutoffs[l]-totals[l], math.Inf(1))
		}
		n := s.cols[i].N
		newLive := sc.live2[:0]
		if n == 0 {
			// Empty segments take the scalar path per lane: for the built-in
			// metrics it settles to +Inf immediately, and a generic metric's
			// fallback sees the same call sequence at any lane width.
			for _, l := range live {
				d, o := dist.PreparedDistanceDetail(s.metric, s.prepared[i], dist.Series{}, segCuts[l], sc.dist)
				if !applySeg(l, d, o, false, i) {
					newLive = append(newLive, l)
				}
			}
			sc.live2 = live
			live = newLive
			continue
		}

		nl := len(live)
		cReplays.Load().Add(int64(nl))
		if nl > 1 {
			// prologue below books one hit or miss for the call; the other
			// nl-1 lanes of this batch reuse the same hoisted columns, so
			// hits and misses count replays, not calls.
			cProHits.Load().Add(int64(nl - 1))
		}
		if cap(sc.values) < nl*n {
			sc.values = make([]float64, nl*n)
		}
		laneVals := sc.laneVals[:0]
		valsC := sc.valsC[:0]
		for j, l := range live {
			laneVals = append(laneVals, sc.values[j*n:(j+1)*n])
			valsC = append(valsC, valsK[l])
		}
		sc.laneVals, sc.valsC = laneVals, valsC
		rows := grow(&sc.rows, nl)
		oks := grow(&sc.oks, nl)
		prog := cs.e.prog
		if nl == 1 {
			// Single live lane: the scalar VM is the K=1 kernel (see the
			// function comment).
			rows[0], oks[0] = prog.EvalSeries(s.cols[i], cs.prologue(i), valsC[0],
				s.cwnd0[i], minCwndPkts*s.mss[i], maxCwndPkts*s.mss[i], s.mss[i], laneVals[0], sc.exec)
		} else {
			prog.EvalSeriesBatch(s.cols[i], cs.prologue(i), valsC,
				s.cwnd0[i], minCwndPkts*s.mss[i], maxCwndPkts*s.mss[i], s.mss[i], laneVals, rows, oks, sc.bex)
		}
		var instrs int64
		for j := 0; j < nl; j++ {
			instrs += int64(rows[j])
		}
		cInstrs.Load().Add(instrs * int64(prog.SuffixLen()))

		r := s.res[i]
		var segDs []float64
		var segOuts []dist.Outcome
		if r != nil {
			// Grid fast path: gather the surviving lanes onto the common
			// resample grid and hand them to the multi-series kernel at once.
			if cap(sc.grids) < nl*dist.ResampleN {
				sc.grids = make([]float64, nl*dist.ResampleN)
			}
			laneGrid := sc.laneGrid[:0]
			cutsC := sc.cutsC[:0]
			ns := 0
			for j, l := range live {
				if !oks[j] {
					continue
				}
				g := sc.grids[ns*dist.ResampleN : (ns+1)*dist.ResampleN]
				ns++
				r.Into(laneVals[j], g)
				laneGrid = append(laneGrid, g)
				cutsC = append(cutsC, segCuts[l])
			}
			sc.laneGrid, sc.cutsC = laneGrid, cutsC
			segDs = grow(&sc.segDs, ns)
			segOuts = growOutcomes(&sc.segOuts, ns)
			if ns == 1 {
				// Same K=1 fallback on the metric side.
				segDs[0], segOuts[0] = dist.PreparedDistanceDetailGrid(s.metric, s.prepared[i], laneGrid[0], cutsC[0], sc.dist)
			} else {
				dist.PreparedDistanceWithinGridBatch(s.metric, s.prepared[i], laneGrid, cutsC, segDs, segOuts, sc.bdist)
			}
		}

		jj := 0 // cursor over the surviving lanes' batch results
		for j, l := range live {
			var d float64
			var o dist.Outcome
			diverged := false
			switch {
			case !oks[j]:
				cDiverged.Load().Inc()
				d, o, diverged = math.Inf(1), dist.Outcome{}, true
			case r != nil:
				d, o = segDs[jj], segOuts[jj]
				jj++
			default:
				// Unsorted time grids (or future non-grid metrics) keep the
				// validating Series path, lane by lane.
				synth := dist.Series{Times: s.times[i], Values: laneVals[j]}
				d, o = dist.PreparedDistanceDetail(s.metric, s.prepared[i], synth, segCuts[l], sc.dist)
			}
			if !applySeg(l, d, o, diverged, i) {
				newLive = append(newLive, l)
			}
		}
		sc.live2 = live
		live = newLive
	}
	for _, l := range live {
		ds[l], exacts[l] = totals[l], true
		if outs != nil {
			outs[l].settle(totals[l], true, dist.StageFull, last, 0)
			cs.offer(valsK[l], &outs[l])
		}
	}
	sc.live = live
}

// grow resizes *buf to n entries, reusing its backing array.
func grow[T int | bool | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growOutcomes is grow for dist.Outcome slices.
func growOutcomes(buf *[]dist.Outcome, n int) []dist.Outcome {
	if cap(*buf) < n {
		*buf = make([]dist.Outcome, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
