package shard

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
)

// Observability instruments (on the coordinator's obs.Registry):
//
//	counters  shard.leases_issued, shard.leases_stolen,
//	          shard.leases_reissued, shard.worker_deaths
//	gauges    shard.workers
//	hists     shard.heartbeat_rtt_seconds (wire latency, from the beat
//	          exchange); federated per-worker copies of every worker
//	          instrument under {worker="N"} labels plus a {worker="fleet"}
//	          aggregate.
//	board     one "shard/worker-NN" row per connected worker, with the
//	          current lease as its phase and handler progress at heartbeat
//	          cadence — the /runs view of a sharded run.
//	records   shard.worker_joined / shard.worker_died (retained, on the
//	          SSE feed); shard.lease_stolen as transient SSE-only events.

// Coordinator accepts worker connections and hands out leases. Workers
// pull (Want → Lease); each lease is tracked until its first Done — a
// worker death or an expired deadline puts it back on the queue, and a
// late duplicate completion is ignored (lease outcomes are pure functions
// of the lease, so whichever copy lands first is THE result).
type Coordinator struct {
	obsv          *obs.Registry
	ln            net.Listener
	leaseDeadline time.Duration

	// PostmortemDir, when set before workers join, receives one JSONL
	// bundle per worker lost mid-run (meta header + last flight tail).
	PostmortemDir string

	mu       sync.Mutex
	cond     *sync.Cond // signals queue growth, worker joins, and close
	workers  map[int]*workerConn
	queue    []*pendingLease
	pending  map[int64]*pendingLease // issued or queued, not yet completed
	nextWID  int
	nextLID  int64
	nextPref int           // round-robin preferred-worker assignment cursor
	dead     []*workerConn // lost (or shutdown-released) workers, accounting retained
	spans    []obs.TrackSpan
	closed   bool

	gWorkers  *obs.Gauge
	cDeaths   *obs.Counter
	cIssued   *obs.Counter
	cStolen   *obs.Counter
	cReissued *obs.Counter
	hBeatRTT  *obs.Histogram
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	id       int
	pid      int
	w        *wire
	sent     map[string]bool // job definitions already shipped
	inflight map[int64]*pendingLease
	live     *obs.Run
	joined   time.Time

	leases   int
	stolen   int
	reissued int // leases taken back from this worker (death or straggle)
	handlers int
	counters map[string]int64
	stats    core.SearchStats

	// Telemetry-plane state (under co.mu unless noted).
	fedTotals   map[string]int64 // federated counter running totals
	lastBeat    time.Time        // zero until the first heartbeat
	rttNanos    int64            // last reported beat RTT
	offsetNanos int64            // best clock-offset estimate (coord − worker)
	lastFlight  []obs.FlightEvent
	lost        bool
	diedAt      time.Time
}

// job is one synthesis job being sharded.
type job struct {
	co  *Coordinator
	msg *jobMsg

	mu     sync.Mutex
	ledger *replay.Ledger // merged sample (nil when the job has none)
}

// pendingLease is one lease from enqueue to first completion.
type pendingLease struct {
	id        int64
	job       *job
	msg       *leaseMsg
	preferred int         // worker the round-robin planner assigned it to
	holder    *workerConn // worker currently executing it (nil when queued)
	issuedAt  time.Time   // zero until first issue
	requeued  bool        // currently back on the queue after a loss
	done      bool

	// Iteration leases: where this chunk's outcomes land.
	call    *iterCall
	offsets []int // chunk position i → call.outs index

	// Whole-trace leases: the waiter's result slot.
	tcall *traceCall
}

// iterCall collects one ExecIteration's chunk results.
type iterCall struct {
	mu        sync.Mutex
	remaining int
	outs      []core.BucketOutcome
	donec     chan struct{}
}

// traceCall collects one whole-trace lease result.
type traceCall struct {
	out   *traceOutcome
	donec chan struct{}
}

// NewCoordinator listens on addr ("127.0.0.1:0" for an ephemeral port)
// and starts accepting workers. leaseDeadline > 0 additionally reissues
// leases that stay uncompleted that long — the straggler/livelock
// backstop; worker death always triggers reissue regardless.
func NewCoordinator(addr string, obsv *obs.Registry, leaseDeadline time.Duration) (*Coordinator, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		obsv:          obsv,
		ln:            ln,
		leaseDeadline: leaseDeadline,
		workers:       map[int]*workerConn{},
		pending:       map[int64]*pendingLease{},
		gWorkers:      obsv.Gauge("shard.workers"),
		cDeaths:       obsv.Counter("shard.worker_deaths"),
		cIssued:       obsv.Counter("shard.leases_issued"),
		cStolen:       obsv.Counter("shard.leases_stolen"),
		cReissued:     obsv.Counter("shard.leases_reissued"),
		hBeatRTT:      obsv.Histogram("shard.heartbeat_rtt_seconds"),
	}
	co.cond = sync.NewCond(&co.mu)
	obsv.SetCluster(func() any { return co.ClusterSnapshot() })
	go co.accept()
	if leaseDeadline > 0 {
		go co.reapLoop()
	}
	return co, nil
}

// Addr is the coordinator's listen address, for workers to join.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// accept admits workers until the listener closes.
func (co *Coordinator) accept() {
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		go co.serveConn(newWire(c))
	}
}

// serveConn runs one worker's connection: handshake, then the pull loop.
func (co *Coordinator) serveConn(w *wire) {
	fr, err := w.read()
	if err != nil || fr.Hello == nil {
		w.close()
		return
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		w.close()
		return
	}
	co.nextWID++
	wc := &workerConn{
		id:        co.nextWID,
		pid:       fr.Hello.PID,
		w:         w,
		sent:      map[string]bool{},
		inflight:  map[int64]*pendingLease{},
		counters:  map[string]int64{},
		fedTotals: map[string]int64{},
		joined:    time.Now(),
	}
	co.workers[wc.id] = wc
	co.gWorkers.Set(float64(len(co.workers)))
	co.cond.Broadcast() // wake AwaitWorkers
	co.mu.Unlock()
	wc.live = co.obsv.Board().Start(fmt.Sprintf("shard/worker-%02d", wc.id), 0)
	wc.live.SetPhase("idle")
	co.obsv.Record("shard.worker_joined", map[string]any{"worker": wc.id, "pid": wc.pid})

	for {
		fr, err := w.read()
		if err != nil {
			co.dropWorker(wc, err)
			return
		}
		switch {
		case fr.Want != nil:
			if !co.issueNext(wc) {
				co.dropWorker(wc, nil)
				return
			}
		case fr.Done != nil:
			co.handleDone(wc, fr.Done)
		case fr.Beat != nil:
			co.handleBeat(wc, fr.Beat)
		case fr.Flight != nil:
			co.handleFlight(wc, fr.Flight)
		}
	}
}

// handleBeat answers the NTP exchange and folds the heartbeat's payload:
// telemetry deltas, clock estimates, liveness, and the piggybacked flight
// tail. Acks go out before the fold so queueing behind federation work
// never inflates the RTT samples.
func (co *Coordinator) handleBeat(wc *workerConn, b *beatMsg) {
	recv := time.Now()
	_ = wc.w.write(&frame{BeatAck: &beatAckMsg{T1: b.T1, T2: recv.UnixNano(), T3: time.Now().UnixNano()}})
	co.foldTelemetry(wc, b.Telemetry)
	if b.LastRTTNanos > 0 {
		co.hBeatRTT.Observe(float64(b.LastRTTNanos) / 1e9)
	}
	co.mu.Lock()
	wc.lastBeat = recv
	if b.HasClock {
		wc.rttNanos = b.LastRTTNanos
		wc.offsetNanos = b.OffsetNanos
	}
	if len(b.Flight) > 0 {
		wc.lastFlight = b.Flight
	}
	co.mu.Unlock()
}

// handleFlight retains a worker-shipped flight tail (error, SIGQUIT, or
// exit) and surfaces the shipment on the event feed.
func (co *Coordinator) handleFlight(wc *workerConn, f *flightMsg) {
	co.mu.Lock()
	if len(f.Events) > 0 {
		wc.lastFlight = f.Events
	}
	co.mu.Unlock()
	co.obsv.Transient("shard.worker_flight", map[string]any{
		"worker": wc.id, "reason": f.Reason, "events": len(f.Events),
	})
}

// issueNext blocks until a lease is available and sends it (preceded by
// the job definition when this worker has not seen it). Returns false
// when the coordinator closed or the send failed.
func (co *Coordinator) issueNext(wc *workerConn) bool {
	wc.live.SetPhase("idle")
	co.mu.Lock()
	var pl *pendingLease
	for {
		if co.closed {
			co.mu.Unlock()
			return false
		}
		if pl = co.popLocked(wc.id); pl != nil {
			break
		}
		co.cond.Wait()
	}
	pl.issuedAt = time.Now()
	pl.requeued = false
	pl.holder = wc
	wc.inflight[pl.id] = pl
	wc.leases++
	stolen := pl.preferred != wc.id
	if stolen {
		wc.stolen++
		co.cStolen.Inc()
	}
	co.cIssued.Inc()
	needJob := !wc.sent[pl.job.msg.ID]
	if needJob {
		wc.sent[pl.job.msg.ID] = true
	}
	co.mu.Unlock()
	if stolen {
		co.obsv.Transient("shard.lease_stolen", map[string]any{
			"lease": pl.id, "worker": wc.id, "from": pl.preferred,
		})
	}

	if needJob {
		if err := wc.w.write(&frame{Job: pl.job.msg}); err != nil {
			return false
		}
	}
	if pl.msg.Iter != nil {
		wc.live.SetPhase(fmt.Sprintf("lease %d: iter %d, %d buckets",
			pl.id, pl.msg.Iter.Iteration, len(pl.msg.Iter.Buckets)))
	} else {
		wc.live.SetPhase(fmt.Sprintf("lease %d: trace %s", pl.id, pl.job.msg.Name))
	}
	return wc.w.write(&frame{Lease: pl.msg}) == nil
}

// popLocked removes the next lease from the queue, preferring one the
// round-robin planner assigned to this worker; taking another worker's
// lease is a steal. Caller holds co.mu.
func (co *Coordinator) popLocked(workerID int) *pendingLease {
	if len(co.queue) == 0 {
		return nil
	}
	idx := 0
	for i, pl := range co.queue {
		if pl.preferred == workerID {
			idx = i
			break
		}
	}
	pl := co.queue[idx]
	co.queue = append(co.queue[:idx], co.queue[idx+1:]...)
	return pl
}

// handleDone completes a lease: the first result wins, duplicates (from a
// reissued lease whose original executor survived) are dropped. Worker
// telemetry folds into the per-worker report state.
func (co *Coordinator) handleDone(wc *workerConn, d *leaseDoneMsg) {
	// Telemetry folds exactly once per Done — even a duplicate completion
	// (reissue race) carries deltas for work that genuinely ran, and its
	// flush drained the same telescoping stream the heartbeats use, so
	// dropping the result below never drops or double-counts instrument
	// increments. (/runs board rows advance here too, via the fold.)
	co.foldTelemetry(wc, d.Telemetry)
	co.mu.Lock()
	executed := wc.inflight[d.ID]
	delete(wc.inflight, d.ID)
	if d.EndNanos > d.StartNanos {
		// The fleet trace records every execution, winner or duplicate:
		// the lane shows what the worker actually spent its time on.
		co.spans = append(co.spans, workerTrackSpan(wc, executed, d, co.obsv.StartTime()))
	}
	pl, ok := co.pending[d.ID]
	if !ok || pl.done {
		co.mu.Unlock()
		return
	}
	pl.done = true
	delete(co.pending, d.ID)
	if pl.requeued {
		// The loser copy is still queued; drop it so no worker re-executes
		// a completed lease.
		for i, q := range co.queue {
			if q.id == pl.id {
				co.queue = append(co.queue[:i], co.queue[i+1:]...)
				break
			}
		}
		pl.requeued = false
	}
	for k, v := range d.Counters {
		wc.counters[k] = v
	}
	part := outcomesStats(d)
	wc.handlers += part.HandlersScored
	wc.stats.Merge(part)
	co.mu.Unlock()

	if len(d.Ledger) > 0 {
		pl.job.mu.Lock()
		if pl.job.ledger != nil {
			pl.job.ledger.Absorb(d.Ledger)
		}
		pl.job.mu.Unlock()
	}

	if pl.call != nil {
		pl.call.mu.Lock()
		for i, o := range d.Outcomes {
			if i < len(pl.offsets) {
				pl.call.outs[pl.offsets[i]] = o
			}
		}
		pl.call.remaining--
		if pl.call.remaining == 0 {
			close(pl.call.donec)
		}
		pl.call.mu.Unlock()
	}
	if pl.tcall != nil && d.Trace != nil {
		pl.tcall.out = d.Trace
		close(pl.tcall.donec)
	}
}

// outcomesStats renders one Done's outcomes as a partial SearchStats so
// per-worker telemetry merges through the one Merge everybody else uses.
func outcomesStats(d *leaseDoneMsg) core.SearchStats {
	if d.Trace != nil {
		return d.Trace.Stats
	}
	var s core.SearchStats
	for _, o := range d.Outcomes {
		if !o.Scored {
			continue
		}
		s.HandlersScored += o.Handlers
		s.SketchesScored += o.SketchesTaken
		s.Funnel.Merge(o.Funnel)
		s.Buckets = append(s.Buckets, core.BucketStats{
			Ops:            o.Ops,
			Iterations:     1,
			SketchesTaken:  o.SketchesTaken,
			HandlersScored: o.Handlers,
			Pruned:         o.Pruned,
			Funnel:         o.Funnel,
			Exhausted:      o.Exhausted,
			Best:           o.Score,
		})
	}
	return s
}

// dropWorker removes a dead worker and requeues its inflight leases so
// the survivors pick them up (work re-issue on failure).
func (co *Coordinator) dropWorker(wc *workerConn, err error) {
	co.mu.Lock()
	if _, ok := co.workers[wc.id]; !ok {
		co.mu.Unlock()
		return
	}
	delete(co.workers, wc.id)
	co.gWorkers.Set(float64(len(co.workers)))
	// A dead worker's completed leases already merged into its stats; keep
	// the conn so Report's cross-worker aggregate (and the cluster view)
	// stays a full accounting.
	wc.lost = !co.closed
	wc.diedAt = time.Now()
	co.dead = append(co.dead, wc)
	// Gather the postmortem while the inflight map is still intact.
	meta := postmortemMeta{
		Postmortem:  fmt.Sprintf("worker-%02d", wc.id),
		Worker:      wc.id,
		PID:         wc.pid,
		LastBeatSec: -1,
		Counters:    wc.fedTotals,
	}
	if err != nil {
		meta.Cause = err.Error()
	} else if !co.closed {
		// Noticed via a failed send rather than the read loop (e.g. a lease
		// write to a SIGKILLed worker) — there is no read error to quote.
		meta.Cause = "connection lost"
	}
	if !wc.lastBeat.IsZero() {
		meta.LastBeatSec = time.Since(wc.lastBeat).Seconds()
	}
	tail := wc.lastFlight
	requeued := 0
	for id, pl := range wc.inflight {
		delete(wc.inflight, id)
		if pl.done || pl.requeued {
			continue
		}
		meta.Inflight = append(meta.Inflight, pl.id)
		pl.requeued = true
		co.queue = append([]*pendingLease{pl}, co.queue...)
		requeued++
	}
	sortInt64s(meta.Inflight)
	wc.reissued += requeued
	if requeued > 0 {
		co.cReissued.Add(int64(requeued))
		co.cond.Broadcast()
	}
	closed := co.closed
	pmDir := co.PostmortemDir
	co.mu.Unlock()
	wc.w.close()
	if !closed {
		co.cDeaths.Inc()
		wc.live.Finish(fmt.Errorf("shard: worker %d (pid %d) lost: %v", wc.id, wc.pid, err))
		co.obsv.Record("shard.worker_died", map[string]any{
			"worker": wc.id, "pid": wc.pid, "cause": meta.Cause,
			"reissued": requeued,
		})
		if pmDir != "" {
			co.writePostmortem(pmDir, meta, tail)
		}
	} else {
		wc.live.Finish(nil)
	}
}

// reapLoop reissues leases that outlive the deadline — stragglers and
// silent losses. The original stays tracked: whichever copy finishes
// first wins, by outcome purity both are identical anyway.
func (co *Coordinator) reapLoop() {
	tick := time.NewTicker(co.leaseDeadline / 2)
	defer tick.Stop()
	for range tick.C {
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			return
		}
		n := 0
		for _, pl := range co.pending {
			if pl.done || pl.requeued || pl.issuedAt.IsZero() {
				continue
			}
			if time.Since(pl.issuedAt) > co.leaseDeadline {
				pl.requeued = true
				if pl.holder != nil {
					pl.holder.reissued++
				}
				co.queue = append(co.queue, pl)
				n++
			}
		}
		if n > 0 {
			co.cReissued.Add(int64(n))
			co.cond.Broadcast()
		}
		co.mu.Unlock()
	}
}

// AwaitWorkers blocks until n workers are connected (or ctx ends).
func (co *Coordinator) AwaitWorkers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		co.mu.Lock()
		co.cond.Broadcast()
		co.mu.Unlock()
	})
	defer stop()
	co.mu.Lock()
	defer co.mu.Unlock()
	for len(co.workers) < n && !co.closed && ctx.Err() == nil {
		co.cond.Wait()
	}
	if len(co.workers) >= n {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("shard: coordinator closed before %d workers joined", n)
}

// Workers returns the number of currently connected workers.
func (co *Coordinator) Workers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.workers)
}

// NewJob registers a synthesis job with the coordinator. ledger, when
// non-nil, receives the priority-deduplicating union of every worker's
// sample.
func (co *Coordinator) NewJob(msg *jobMsg, ledger *replay.Ledger) *job {
	return &job{co: co, msg: msg, ledger: ledger}
}

// EndJob broadcasts the job's teardown so workers free its state.
func (co *Coordinator) EndJob(j *job) {
	co.mu.Lock()
	targets := make([]*workerConn, 0, len(co.workers))
	for _, wc := range co.workers {
		if wc.sent[j.msg.ID] {
			targets = append(targets, wc)
		}
	}
	co.mu.Unlock()
	for _, wc := range targets {
		wc.w.write(&frame{JobEnd: &jobEndMsg{ID: j.msg.ID}})
	}
}

// enqueue registers and queues a lease, assigning it a preferred worker
// round-robin (the baseline plan work-stealing deviates from).
func (co *Coordinator) enqueue(pl *pendingLease) {
	co.mu.Lock()
	co.nextLID++
	pl.id = co.nextLID
	pl.msg.ID = pl.id
	ids := make([]int, 0, len(co.workers))
	for id := range co.workers {
		ids = append(ids, id)
	}
	if len(ids) > 0 {
		pl.preferred = ids[co.nextPref%len(ids)]
		co.nextPref++
	}
	co.pending[pl.id] = pl
	co.queue = append(co.queue, pl)
	co.cond.Broadcast()
	co.mu.Unlock()
}

// ExecIteration implements core.LeaseExecutor: it chunks the iteration's
// buckets into small leases (guided-self-scheduling-style tails so a
// straggling worker strands little work), queues them, and waits for all
// chunks. Blocks until every chunk completes — lost leases are reissued
// on worker death or deadline — or ctx is cancelled, in which case
// incomplete buckets return Scored=false and the search winds down as an
// interrupted run.
func (j *job) ExecIteration(ctx context.Context, lease core.IterationLease) ([]core.BucketOutcome, error) {
	co := j.co
	w := co.Workers()
	if w < 1 {
		w = 1
	}
	chunk := (len(lease.Buckets) + 2*w - 1) / (2 * w)
	if chunk < 1 {
		chunk = 1
	}
	call := &iterCall{
		outs:  make([]core.BucketOutcome, len(lease.Buckets)),
		donec: make(chan struct{}),
	}
	var pls []*pendingLease
	for start := 0; start < len(lease.Buckets); start += chunk {
		end := start + chunk
		if end > len(lease.Buckets) {
			end = len(lease.Buckets)
		}
		sub := lease
		sub.Buckets = lease.Buckets[start:end]
		offsets := make([]int, end-start)
		for i := range offsets {
			offsets[i] = start + i
		}
		pls = append(pls, &pendingLease{
			job:     j,
			msg:     &leaseMsg{JobID: j.msg.ID, Iter: &sub},
			call:    call,
			offsets: offsets,
		})
	}
	call.remaining = len(pls)
	for _, pl := range pls {
		co.enqueue(pl)
	}
	select {
	case <-call.donec:
		return call.outs, nil
	case <-ctx.Done():
		co.abandon(pls)
		// Give any just-completed chunks their outcomes; the rest stay
		// unscored, matching an in-process run whose workers were not
		// admitted after cancellation.
		call.mu.Lock()
		outs := call.outs
		call.mu.Unlock()
		return outs, ctx.Err()
	}
}

// ExecTrace queues a whole-trace lease and waits for its result.
func (j *job) ExecTrace(ctx context.Context) (*traceOutcome, error) {
	tc := &traceCall{donec: make(chan struct{})}
	pl := &pendingLease{
		job:   j,
		msg:   &leaseMsg{JobID: j.msg.ID, Trace: true},
		tcall: tc,
	}
	j.co.enqueue(pl)
	select {
	case <-tc.donec:
		return tc.out, nil
	case <-ctx.Done():
		j.co.abandon([]*pendingLease{pl})
		return nil, ctx.Err()
	}
}

// abandon forgets leases after their waiter gave up, so a late completion
// does not touch freed state and queued copies stop being issued.
func (co *Coordinator) abandon(pls []*pendingLease) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, pl := range pls {
		if pl.id == 0 || pl.done {
			continue
		}
		pl.done = true
		delete(co.pending, pl.id)
		for i := 0; i < len(co.queue); {
			if co.queue[i].id == pl.id {
				co.queue = append(co.queue[:i], co.queue[i+1:]...)
				continue
			}
			i++
		}
	}
}

// WorkerReport is one worker's row in the shard report.
type WorkerReport struct {
	ID       int              `json:"id"`
	PID      int              `json:"pid"`
	Leases   int              `json:"leases"`
	Stolen   int              `json:"stolen,omitempty"`
	Handlers int              `json:"handlers"`
	Counters map[string]int64 `json:"counters,omitempty"`
	// Federated is the worker's counter totals as accumulated from its
	// shipped telemetry deltas (heartbeats + lease completions) — the
	// per-worker values behind the {worker="N"} series on /metrics.
	Federated map[string]int64 `json:"federated,omitempty"`
	// Lost marks a worker that died mid-run (its completed leases remain
	// in the merged stats; its inflight ones were reissued).
	Lost bool `json:"lost,omitempty"`
	// Stats is the worker's merged partial SearchStats (not JSON-rendered:
	// bucket bests can be +Inf; MergedFunnel carries the JSON view).
	Stats core.SearchStats `json:"-"`
}

// workerReportRow snapshots one connection's accounting (callers hold
// co.mu).
func workerReportRow(wc *workerConn) WorkerReport {
	return WorkerReport{
		ID:        wc.id,
		PID:       wc.pid,
		Leases:    wc.leases,
		Stolen:    wc.stolen,
		Handlers:  wc.handlers,
		Counters:  wc.counters,
		Federated: wc.fedTotals,
		Lost:      wc.lost,
		Stats:     wc.stats,
	}
}

// Report summarizes a sharded run: per-worker accounting, the merged
// cross-worker SearchStats (via core.SearchStats.Merge), the shard.*
// counters, and the final cluster snapshot.
type Report struct {
	Workers []WorkerReport `json:"workers"`
	// Merged is every worker's partial stats folded together — the
	// cross-worker aggregate the coordinator's own run report reconciles
	// against.
	Merged core.SearchStats `json:"-"`
	// MergedFunnel is Merged.Funnel rendered for JSON consumers.
	MergedFunnel core.FunnelReport `json:"merged_funnel"`
	Counters     map[string]int64  `json:"counters"`
	// Cluster is the fleet view at report time (heartbeat ages, clock
	// estimates, per-worker rates) — what /cluster served live.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
}

// Report snapshots the coordinator's accounting. Live workers and dead
// ones both get per-worker rows (dead rows carry Lost); a lost worker's
// completed leases stay in the merge — only its inflight ones were
// reissued to survivors.
func (co *Coordinator) Report() *Report {
	co.mu.Lock()
	defer co.mu.Unlock()
	rep := &Report{Counters: co.obsv.CounterValues("shard.")}
	for _, wc := range co.dead {
		rep.Workers = append(rep.Workers, workerReportRow(wc))
	}
	for _, wc := range co.workers {
		rep.Workers = append(rep.Workers, workerReportRow(wc))
	}
	for i := range rep.Workers {
		rep.Merged.Merge(rep.Workers[i].Stats)
	}
	// Map iteration is random; report rows by worker ID.
	sort.Slice(rep.Workers, func(i, k int) bool { return rep.Workers[i].ID < rep.Workers[k].ID })
	rep.MergedFunnel = rep.Merged.Funnel.Report()
	rep.Cluster = co.clusterLocked()
	return rep
}

// Close stops the coordinator: the listener closes, blocked pulls return,
// every worker connection is torn down, and the buffered fleet-trace
// spans flush into the registry's trace sinks (before the CLI closes
// them — coordinator teardown precedes registry teardown everywhere).
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	workers := make([]*workerConn, 0, len(co.workers))
	for _, wc := range co.workers {
		workers = append(workers, wc)
	}
	spans := co.spans
	co.spans = nil
	co.cond.Broadcast()
	co.mu.Unlock()
	co.obsv.AddTrackSpans(spans)
	co.ln.Close()
	for _, wc := range workers {
		wc.w.close()
	}
}
