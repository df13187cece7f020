package dist

// Stage identifies which rung of the elimination cascade settled a bounded
// distance computation. The global counters (dist.lb_prunes, ...) aggregate
// the same events process-wide; an Outcome attributes them to one candidate
// so callers can build per-candidate provenance (the search funnel).
type Stage uint8

const (
	// StageFull: the kernel ran to completion; the value is exact.
	StageFull Stage = iota
	// StageLBKim: the endpoint lower bound settled the computation before
	// any DP work (DTW's LB_Kim; Fréchet's endpoint minimax bound).
	StageLBKim
	// StageLBKeogh: the envelope lower bound settled the computation
	// before any DP work.
	StageLBKeogh
	// StageAbandon: the scan abandoned mid-computation — a DP row minimum
	// or running sum proved the result >= the cutoff.
	StageAbandon

	// NumStages bounds Stage values (for arrays indexed by stage).
	NumStages
)

// String names the stage the way funnels and ledgers render it.
func (s Stage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageLBKim:
		return "lb_kim"
	case StageLBKeogh:
		return "lb_keogh"
	case StageAbandon:
		return "abandon"
	}
	return "unknown"
}

// Outcome describes how one bounded computation settled: the stage, where
// the DP stopped, and the cell cost. Cells counts DP cells filled (for the
// scan metrics, points consumed); Saved is the work the cascade avoided
// relative to an unabandoned pass over the same inputs. Saved is 0 on the
// plain Distance path, where the full cost is not precomputed.
type Outcome struct {
	// Stage is the cascade rung that settled the computation.
	Stage Stage
	// Row is the 1-based DP row (or scan index) at abandonment; 0 when the
	// computation never entered the DP or ran to completion.
	Row int
	// Cells is the number of DP cells (or scan points) computed.
	Cells int
	// Saved is the number of cells a full pass would additionally have
	// computed.
	Saved int
}

// Exact reports whether the value accompanying this outcome is the exact
// distance (the computation ran to completion): every non-full stage
// returns a lower bound >= cutoff.
func (o Outcome) Exact() bool { return o.Stage == StageFull }

// bandCells is the DP cell count of a full banded pass over an n x m grid —
// precomputed per PreparedSeries so abandoning kernels can report cells
// saved without an O(n) loop on the hot path.
func bandCells(n, m, band int) int {
	if band <= 0 {
		band = ResampleN / 10
	}
	total := 0
	for i := 1; i <= n; i++ {
		lo, hi := i-band, i+band
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		if hi >= lo {
			total += hi - lo + 1
		}
	}
	return total
}
