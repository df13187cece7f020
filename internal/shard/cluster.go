package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// ClusterWorker is one worker's row in the fleet snapshot (/cluster, the
// -fleet table, Report.Cluster).
type ClusterWorker struct {
	ID        int    `json:"id"`
	PID       int    `json:"pid"`
	Connected bool   `json:"connected"`
	Lost      bool   `json:"lost,omitempty"`
	Phase     string `json:"phase,omitempty"`
	// LastBeatSec is the age of the newest heartbeat (-1 before any).
	LastBeatSec float64 `json:"last_beat_sec"`
	// RTTMs/ClockOffsetMs come from the worker's NTP-style exchange
	// (zero until the first ack round-trips).
	RTTMs         float64 `json:"rtt_ms,omitempty"`
	ClockOffsetMs float64 `json:"clock_offset_ms,omitempty"`
	// Inflight lists the lease IDs currently executing on the worker.
	Inflight []int64 `json:"inflight,omitempty"`
	Leases   int     `json:"leases"`
	Stolen   int     `json:"stolen,omitempty"`
	Reissued int     `json:"reissued,omitempty"`
	// Handlers is the federated core.handlers_scored total;
	// CandidatesPerSec is its rate over the worker's connected lifetime.
	Handlers         int64   `json:"handlers"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	// Enumeration is the worker's sketch-space provenance: "warm" when it
	// loaded the shared snapshot, "enumerated" when it built the space
	// itself, "pending" before either.
	Enumeration string `json:"enumeration"`
}

// ClusterSnapshot is the coordinator's fleet view, served at /cluster.
type ClusterSnapshot struct {
	Workers      []ClusterWorker  `json:"workers"`
	QueuedLeases int              `json:"queued_leases"`
	Counters     map[string]int64 `json:"counters"`
}

// ClusterSnapshot captures the current fleet state.
func (co *Coordinator) ClusterSnapshot() *ClusterSnapshot {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.clusterLocked()
}

// clusterLocked builds the snapshot; caller holds co.mu.
func (co *Coordinator) clusterLocked() *ClusterSnapshot {
	snap := &ClusterSnapshot{
		QueuedLeases: len(co.queue),
		Counters:     map[string]int64{},
	}
	snap.Counters["shard.leases_issued"] = co.cIssued.Value()
	snap.Counters["shard.leases_stolen"] = co.cStolen.Value()
	snap.Counters["shard.leases_reissued"] = co.cReissued.Value()
	snap.Counters["shard.worker_deaths"] = co.cDeaths.Value()
	for _, wc := range co.workers {
		snap.Workers = append(snap.Workers, clusterRow(wc, true))
	}
	for _, wc := range co.dead {
		snap.Workers = append(snap.Workers, clusterRow(wc, false))
	}
	sortWorkers(snap.Workers)
	return snap
}

// clusterRow renders one worker's cluster view; caller holds co.mu.
func clusterRow(wc *workerConn, connected bool) ClusterWorker {
	row := ClusterWorker{
		ID:            wc.id,
		PID:           wc.pid,
		Connected:     connected,
		Lost:          wc.lost,
		LastBeatSec:   -1,
		RTTMs:         float64(wc.rttNanos) / 1e6,
		ClockOffsetMs: float64(wc.offsetNanos) / 1e6,
		Leases:        wc.leases,
		Stolen:        wc.stolen,
		Reissued:      wc.reissued,
		Handlers:      wc.fedTotals["core.handlers_scored"],
		Enumeration:   enumerationState(wc.fedTotals),
	}
	if !wc.lastBeat.IsZero() {
		row.LastBeatSec = time.Since(wc.lastBeat).Seconds()
	}
	for id := range wc.inflight {
		row.Inflight = append(row.Inflight, id)
	}
	sortInt64s(row.Inflight)
	end := time.Now()
	if !connected && !wc.diedAt.IsZero() {
		end = wc.diedAt
	}
	if life := end.Sub(wc.joined).Seconds(); life > 0 {
		row.CandidatesPerSec = float64(row.Handlers) / life
	}
	if snap, ok := bphase(wc); ok {
		row.Phase = snap
	}
	return row
}

// bphase reads the worker's live board phase.
func bphase(wc *workerConn) (string, bool) {
	if wc.live == nil {
		return "", false
	}
	return wc.live.Phase(), true
}

// enumerationState derives where a worker's sketch space came from.
func enumerationState(fed map[string]int64) string {
	switch {
	case fed["corpus.registry_snapshot_loads"] > 0:
		return "warm"
	case fed["enum.candidates"] > 0 || fed["corpus.sketches_enumerated"] > 0:
		return "enumerated"
	default:
		return "pending"
	}
}

func sortWorkers(ws []ClusterWorker) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
}

func sortInt64s(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// postmortemMeta is the header line of a postmortem bundle.
type postmortemMeta struct {
	Postmortem  string           `json:"postmortem"` // "worker-NN"
	Worker      int              `json:"worker"`
	PID         int              `json:"pid"`
	Cause       string           `json:"cause"`
	LastBeatSec float64          `json:"last_beat_sec"` // -1: never beat
	Inflight    []int64          `json:"inflight,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	FlightLen   int              `json:"flight_events"`
}

// writePostmortem emits one JSONL bundle for a lost worker: a meta header
// line, then the worker's last known flight-ring tail (shipped on its
// heartbeats), oldest first. Write failures degrade to a record on the
// registry — a postmortem must never take the coordinator down.
func (co *Coordinator) writePostmortem(dir string, meta postmortemMeta, tail []obs.FlightEvent) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		co.obsv.Record("shard.postmortem_error", map[string]any{"error": err.Error()})
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("postmortem-worker-%02d.jsonl", meta.Worker))
	f, err := os.Create(path)
	if err != nil {
		co.obsv.Record("shard.postmortem_error", map[string]any{"error": err.Error()})
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	meta.FlightLen = len(tail)
	if err := enc.Encode(meta); err != nil {
		return
	}
	for _, ev := range tail {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}

// workerTrackSpan renders one completed lease as a clock-corrected span on
// the worker's fleet-trace lane. Caller holds co.mu (reads wc clock
// state).
func workerTrackSpan(wc *workerConn, pl *pendingLease, d *leaseDoneMsg, start time.Time) obs.TrackSpan {
	name := fmt.Sprintf("lease %d", d.ID)
	if pl != nil {
		switch {
		case pl.msg.Iter != nil:
			name = fmt.Sprintf("lease %d: iter %d (%d buckets)", d.ID, pl.msg.Iter.Iteration, len(pl.msg.Iter.Buckets))
		case pl.msg.Trace:
			name = fmt.Sprintf("lease %d: trace %s", d.ID, pl.job.msg.Name)
		}
	}
	s := correctedSec(d.StartNanos, wc.offsetNanos, start)
	e := correctedSec(d.EndNanos, wc.offsetNanos, start)
	return obs.TrackSpan{
		Track:    fmt.Sprintf("shard worker-%02d", wc.id),
		Name:     name,
		StartSec: s,
		DurSec:   e - s,
		Args: map[string]any{
			"worker": wc.id,
			"lease":  d.ID,
			"job":    d.JobID,
		},
	}
}
