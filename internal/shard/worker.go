package shard

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// SnapshotDir is the shared corpus.Registry snapshot directory. A
	// worker pointed at the coordinator's prewarmed dir loads the sketch
	// space instead of re-enumerating it (enum.candidates stays 0).
	SnapshotDir string
	// Procs bounds the worker's scoring parallelism (core Workers).
	// Default GOMAXPROCS.
	Procs int
	// Heartbeat is the telemetry cadence: instrument deltas, the NTP-style
	// clock exchange, and a flight-ring tail ship to the coordinator this
	// often. 0 means the 500ms default; negative disables heartbeats
	// (telemetry then rides lease completions only).
	Heartbeat time.Duration
	// Obs receives the worker's instruments; its counter values ship to
	// the coordinator with every lease result, and its deltas federate at
	// heartbeat cadence. Default: a private registry.
	Obs *obs.Registry
}

// dialTimeout bounds how long a worker retries the initial dial — workers
// typically start concurrently with the coordinator's listener.
const dialTimeout = 10 * time.Second

// wjob is a worker's per-job state.
type wjob struct {
	id     string
	name   string
	segs   []*trace.Segment
	opts   core.Options
	ledger *replay.Ledger
	runner *core.LeaseRunner
}

// RunWorker joins the coordinator at addr and executes leases until the
// connection closes (the coordinator's shutdown is the worker's exit
// signal) or ctx is cancelled. Worker processes are stateless between
// jobs: everything a lease needs arrives in its job definition, and the
// sketch space comes from the shared snapshot dir (or local enumeration
// as the cold fallback).
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	obsv := cfg.Obs
	if obsv == nil {
		obsv = obs.New()
	}
	procs := cfg.Procs
	if procs < 1 {
		procs = runtime.GOMAXPROCS(0)
	}
	beat := cfg.Heartbeat
	if beat == 0 {
		beat = defaultHeartbeat
	}
	w, err := dialRetry(ctx, addr)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.write(&frame{Hello: &helloMsg{PID: pid(), Procs: procs}}); err != nil {
		return err
	}

	registry := corpus.NewRegistry(cfg.SnapshotDir, obsv)
	defer registry.Close()

	// The telemetry plane: a reporter tracking what already shipped, the
	// NTP-style clock estimator, and the lease the worker is executing
	// right now (for the cluster view's inflight column).
	obsv.EnableFlight(0)
	rep := newReporter(obsv)
	clock := &clockSync{}
	var currentLease atomic.Int64
	hWireRTT := obsv.Histogram("shard.wire_rtt_seconds")

	sendBeat := func(final bool) error {
		tm, _ := rep.flush()
		lastRTT, offset, has := clock.estimate()
		return w.write(&frame{Beat: &beatMsg{
			T1:           time.Now().UnixNano(),
			LastRTTNanos: lastRTT,
			OffsetNanos:  offset,
			HasClock:     has,
			Lease:        currentLease.Load(),
			Telemetry:    tm,
			Flight:       obsv.Flight().Tail(beatFlightTail),
			Final:        final,
		}})
	}
	shipFlight := func(reason string) {
		w.write(&frame{Flight: &flightMsg{Reason: reason, Events: obsv.Flight().Tail(shipFlightTail)}})
	}
	// Final beat on every exit path: best-effort (the connection may
	// already be down), carrying whatever deltas have not shipped yet.
	// Registered after the close defers, so it runs while w is still open.
	beatStop := make(chan struct{})
	defer func() {
		close(beatStop)
		sendBeat(true)
	}()
	if beat > 0 {
		go func() {
			// First beat immediately: even a worker SIGKILLed moments after
			// joining leaves the coordinator a flight tail to postmortem.
			if sendBeat(false) != nil {
				return
			}
			tick := time.NewTicker(beat)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if sendBeat(false) != nil {
						return
					}
				case <-beatStop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	// On SIGQUIT, ship the deep flight tail instead of dying with a stack
	// dump — the operator's "what is that worker doing" probe.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)
	go func() {
		for {
			select {
			case <-sigq:
				shipFlight("sigquit")
			case <-beatStop:
				return
			}
		}
	}()

	// The main loop owns jobs. The reader goroutine answers the clock
	// exchange inline (acks must not queue behind lease execution) and
	// forwards everything else to the main loop.
	jobs := map[string]*wjob{}
	frames := make(chan *frame, 16)
	readErr := make(chan error, 1)
	go func() {
		defer close(frames)
		for {
			fr, err := w.read()
			if err != nil {
				readErr <- err
				return
			}
			if fr.BeatAck != nil {
				a := fr.BeatAck
				t4 := time.Now().UnixNano()
				rtt := (t4 - a.T1) - (a.T3 - a.T2)
				if rtt < 0 {
					rtt = 0
				}
				hWireRTT.Observe(float64(rtt) / 1e9)
				clock.sample(a.T1, a.T2, a.T3, t4)
				continue
			}
			select {
			case frames <- fr:
			case <-ctx.Done():
				return
			}
		}
	}()

	for {
		if err := w.write(&frame{Want: &wantMsg{}}); err != nil {
			return nil // coordinator gone: clean exit
		}
		var lease *leaseMsg
		for lease == nil {
			var fr *frame
			select {
			case fr = <-frames:
			case <-ctx.Done():
				return ctx.Err()
			}
			if fr == nil {
				return nil // connection closed: coordinator shut down
			}
			switch {
			case fr.Job != nil:
				j, err := newWorkerJob(fr.Job, registry, obsv, procs)
				if err != nil {
					shipFlight("error: " + err.Error())
					return fmt.Errorf("shard: job %s: %w", fr.Job.ID, err)
				}
				jobs[fr.Job.ID] = j
			case fr.JobEnd != nil:
				if j := jobs[fr.JobEnd.ID]; j != nil && j.runner != nil {
					j.runner.Close()
				}
				delete(jobs, fr.JobEnd.ID)
			case fr.Lease != nil:
				lease = fr.Lease
			}
		}
		j := jobs[lease.JobID]
		if j == nil {
			return fmt.Errorf("shard: lease %d for unknown job %s", lease.ID, lease.JobID)
		}
		currentLease.Store(lease.ID)
		startNanos := time.Now().UnixNano()
		done, err := executeLease(ctx, j, lease)
		currentLease.Store(0)
		if err != nil {
			shipFlight("error: " + err.Error())
			return err
		}
		done.StartNanos = startNanos
		done.EndNanos = time.Now().UnixNano()
		// One flush serves both fields: the shipped deltas telescope to
		// exactly the absolute counters riding the same frame.
		done.Telemetry, done.Counters = rep.flush()
		if err := w.write(&frame{Done: done}); err != nil {
			return nil
		}
	}
}

// executeLease runs one lease. An iteration lease whose segment IDs fall
// outside the job's segment list is malformed and fails the lease rather
// than crashing the worker.
func executeLease(ctx context.Context, j *wjob, lease *leaseMsg) (*leaseDoneMsg, error) {
	done := &leaseDoneMsg{ID: lease.ID, JobID: j.id}
	switch {
	case lease.Iter != nil:
		for _, id := range lease.Iter.SegmentIDs {
			if id < 0 || id >= len(j.segs) {
				return nil, fmt.Errorf("shard: lease %d: segment %d out of range [0, %d)", lease.ID, id, len(j.segs))
			}
		}
		if j.runner == nil {
			r, err := core.NewLeaseRunner(j.segs, j.opts)
			if err != nil {
				return nil, err
			}
			j.runner = r
		}
		done.Outcomes = j.runner.Exec(ctx, *lease.Iter)
	case lease.Trace:
		o := j.opts
		o.RunName = j.name
		t0 := time.Now()
		res, err := core.Synthesize(ctx, j.segs, o)
		to := &traceOutcome{DurationNS: time.Since(t0).Nanoseconds()}
		if err != nil {
			to.Err = err.Error()
		}
		if res != nil {
			to.Handler = res.Handler.String()
			to.Sketch = res.Sketch.String()
			to.Distance = res.Distance
			to.Stats = res.Stats
		}
		done.Trace = to
	default:
		return nil, fmt.Errorf("shard: lease %d has no work", lease.ID)
	}
	if j.ledger != nil {
		done.Ledger = j.ledger.Export()
	}
	return done, nil
}

// newWorkerJob materializes a job definition: metric by name, the sketch
// corpus from the shared registry (snapshot-warmed when available), and
// the job's core options rebuilt from the wire scalars.
func newWorkerJob(jm *jobMsg, registry *corpus.Registry, obsv *obs.Registry, procs int) (*wjob, error) {
	metric, err := dist.ByName(jm.Metric)
	if err != nil {
		return nil, err
	}
	c, err := registry.Get(corpus.Options{
		DSL:        jm.DSL,
		BucketCap:  jm.Opts.BucketCap,
		ScanBudget: jm.Opts.ScanBudget,
	})
	if err != nil {
		return nil, err
	}
	wo := jm.Opts
	j := &wjob{
		id:   jm.ID,
		name: jm.Name,
		segs: jm.Segments,
		opts: core.Options{
			DSL:             jm.DSL,
			Metric:          metric,
			InitialSamples:  wo.InitialSamples,
			InitialKeep:     wo.InitialKeep,
			InitialSegments: wo.InitialSegments,
			MaxCompletions:  wo.MaxCompletions,
			MaxHandlers:     wo.MaxHandlers,
			BucketCap:       wo.BucketCap,
			ScanBudget:      wo.ScanBudget,
			Workers:         procs,
			RandomSegments:  wo.RandomSegments,
			NoBucketPruning: wo.NoBucketPruning,
			ExactScoring:    wo.ExactScoring,
			Sketches:        c,
			Programs:        c,
			Seed:            wo.Seed,
			Obs:             obsv,
		},
	}
	if wo.Ledger {
		j.ledger = replay.NewLedger(wo.LedgerCap, wo.LedgerSeed)
		j.opts.Ledger = j.ledger
	}
	return j, nil
}

// dialRetry dials the coordinator, retrying briefly: workers are spawned
// concurrently with (or before) the listener coming up.
func dialRetry(ctx context.Context, addr string) (*wire, error) {
	deadline := time.Now().Add(dialTimeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return newWire(c), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: joining %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
