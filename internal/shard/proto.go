// Package shard scales synthesis horizontally: a coordinator keeps
// Algorithm 1's outer loop in-process and leases per-iteration bucket
// scoring (or, in batch mode, whole traces) to worker processes over a
// dependency-free localhost RPC. Workers pull leases (work-stealing for
// stragglers), and per-worker telemetry merges through
// core.SearchStats.Merge into one report. Workers warm-start from a shared
// corpus.Registry snapshot dir, so fan-out cost is process spawn, not
// re-enumeration.
//
// Exactness: lease outcomes are pure functions of the lease
// (core.LeaseRunner resets its memo cache per lease), so which worker
// executes a lease — original assignee, thief, or a reissue after a crash
// — cannot change the result, and the default/ExactScoring modes return
// bit-identical winners and distances to a single-process run: every
// lease prunes against bucket-local cutoffs only.
package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// maxFrame bounds a single wire frame. Snapshot-warmed corpora never ship
// over the wire (only lease outcomes and job definitions do), so this is
// generous headroom, not a working limit.
const maxFrame = 1 << 28

// frame is the single wire envelope: exactly one field is set per frame.
// One self-describing gob stream per frame keeps the protocol stateless —
// a frame can be decoded in isolation, and a torn connection never leaves
// a decoder mid-stream.
type frame struct {
	Hello   *helloMsg
	Want    *wantMsg
	Job     *jobMsg
	Lease   *leaseMsg
	Done    *leaseDoneMsg
	JobEnd  *jobEndMsg
	Beat    *beatMsg
	BeatAck *beatAckMsg
	Flight  *flightMsg
}

// helloMsg introduces a worker.
type helloMsg struct {
	PID   int
	Procs int
}

// wantMsg is a worker's pull request: send me one lease when you have one.
type wantMsg struct{}

// jobMsg defines a synthesis job. Sent to a worker once, before its first
// lease of the job; Segments is the job's full segment list (iteration
// leases reference subsets by index).
type jobMsg struct {
	ID       string
	Name     string
	DSL      *dsl.DSL
	Metric   string
	Segments []*trace.Segment
	Opts     WireOptions
}

// WireOptions is the scalar subset of core.Options a job ships to its
// workers. BucketCap and ScanBudget are sent post-default, so worker
// corpora hash to the same config as the coordinator's.
type WireOptions struct {
	InitialSamples  int
	InitialKeep     int
	InitialSegments int
	MaxCompletions  int
	MaxHandlers     int
	BucketCap       int
	ScanBudget      int
	RandomSegments  bool
	NoBucketPruning bool
	ExactScoring    bool
	Seed            int64
	// Ledger asks workers to sample candidate provenance into a ledger
	// compatible with the coordinator's (equal seeds assign equal
	// priorities), shipped back with each lease result and merged by
	// priority-deduplicating union.
	Ledger     bool
	LedgerCap  int
	LedgerSeed int64
}

// leaseMsg grants one lease. Exactly one of Iter/Trace is set: a bucket-
// range iteration lease (single-trace sharding) or a whole-trace lease
// (batch sharding).
type leaseMsg struct {
	ID    int64
	JobID string
	Iter  *core.IterationLease
	Trace bool
}

// leaseDoneMsg reports a completed lease.
type leaseDoneMsg struct {
	ID    int64
	JobID string
	// Outcomes aligns with the lease's Iter.Buckets.
	Outcomes []core.BucketOutcome
	// Trace is the whole-trace result.
	Trace *traceOutcome
	// Ledger is the worker's current ledger sample for this job (full
	// export; the coordinator's priority-deduplicating Absorb makes
	// repeated shipment idempotent).
	Ledger []replay.LedgerItem
	// Counters snapshots the worker's obs counters (absolute values) —
	// how warm-start claims like "zero enumeration on workers" become
	// assertable from the coordinator's report. Captured in the same
	// critical section as Telemetry, so the shipped deltas telescope to
	// exactly these values.
	Counters map[string]int64
	// Telemetry carries the instrument increments since the previous
	// flush (heartbeat or completion — both drain the same stream, so
	// nothing is ever counted twice, even when the lease result itself is
	// a dropped duplicate).
	Telemetry *telemetryMsg
	// StartNanos/EndNanos stamp the lease's execution span on the
	// worker's clock (unix nanos); the coordinator corrects them by the
	// estimated clock offset when merging the fleet trace.
	StartNanos int64
	EndNanos   int64
}

// telemetryMsg is one worker's instrument increments since its previous
// telemetry flush. Counters and histogram Count/Sum/Buckets are deltas
// (consecutive flushes telescope to the absolute instrument values);
// gauges are absolutes (last write wins). Shipped on every heartbeat and
// every lease completion.
type telemetryMsg struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]obs.HistSnapshot
}

// beatMsg is a worker heartbeat: liveness, telemetry deltas, the NTP-style
// clock exchange, and a small flight-ring tail so the coordinator always
// holds a recent postmortem candidate even if the worker dies without a
// goodbye (SIGKILL).
type beatMsg struct {
	// T1 is the worker's send time (unix nanos, worker clock); the
	// coordinator echoes it in the ack.
	T1 int64
	// LastRTTNanos is the round-trip measured by the previous beat's ack
	// (0 until one completes); feeds shard.heartbeat_rtt_seconds.
	LastRTTNanos int64
	// OffsetNanos is the worker's best estimate of coordinator-clock
	// minus worker-clock, from the lowest-RTT exchange so far.
	OffsetNanos int64
	// HasClock reports whether OffsetNanos is a real estimate yet.
	HasClock bool
	// Lease is the lease ID currently executing (0 when idle).
	Lease int64
	// Telemetry is the delta flush riding this beat (nil when idle and
	// nothing moved).
	Telemetry *telemetryMsg
	// Flight is a short tail of the worker's flight ring.
	Flight []obs.FlightEvent
	// Final marks the last beat before a clean exit.
	Final bool
}

// beatAckMsg answers a heartbeat with the two coordinator-side timestamps
// of the NTP exchange: T2 receive, T3 send (coordinator clock); T1 echoes
// the worker's send time.
type beatAckMsg struct {
	T1 int64
	T2 int64
	T3 int64
}

// flightMsg ships a worker's flight-ring tail out of band: on lease
// error, on SIGQUIT, and in the final frame before exit.
type flightMsg struct {
	// Reason is why the tail shipped ("error: ...", "sigquit", "exit").
	Reason string
	Events []obs.FlightEvent
}

// traceOutcome is one whole-trace lease's synthesis result, mirroring
// corpus.TraceResult.
type traceOutcome struct {
	Handler    string
	Sketch     string
	Distance   float64
	Stats      core.SearchStats
	DurationNS int64
	Err        string
}

// jobEndMsg tells a worker to release a job's state.
type jobEndMsg struct {
	ID string
}

// wire frames a net.Conn: 4-byte big-endian length prefix, then one gob
// stream per frame. Writes are serialized (a worker's heartbeat goroutine
// writes beside its main loop); reads have a single owner.
type wire struct {
	c   net.Conn
	r   *bufio.Reader
	wmu sync.Mutex
}

func newWire(c net.Conn) *wire {
	return &wire{c: c, r: bufio.NewReaderSize(c, 1<<16)}
}

func (w *wire) write(fr *frame) error {
	b, err := encodeFrame(fr)
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err = w.c.Write(b)
	return err
}

func (w *wire) read() (*frame, error) { return readFrame(w.r) }

// encodeFrame renders one frame: the length prefix, then its gob stream.
func encodeFrame(fr *frame) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(fr); err != nil {
		return nil, fmt.Errorf("shard: encoding frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// readFrame reads one frame. The body buffer grows with the bytes that
// actually arrive, so a peer's length prefix alone cannot make the reader
// allocate up to maxFrame.
func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("shard: frame of %d bytes exceeds limit", n)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var fr frame
	if err := gob.NewDecoder(&body).Decode(&fr); err != nil {
		return nil, fmt.Errorf("shard: decoding frame: %w", err)
	}
	return &fr, nil
}

func (w *wire) close() error { return w.c.Close() }
