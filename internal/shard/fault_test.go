package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/obs"
)

// checkFederation asserts the telemetry plane's core invariant: for every
// federated counter family, the {worker="fleet"} aggregate equals the sum
// of the per-worker labeled series — regardless of reissues, duplicate
// completions, or worker deaths (each shipped delta folds exactly once).
func checkFederation(t *testing.T, obsv *obs.Registry, rep *Report) {
	t.Helper()
	all := obsv.CounterValues("")
	families := 0
	for k, fleet := range all {
		base, ok := strings.CutSuffix(k, `{worker="fleet"}`)
		if !ok {
			continue
		}
		families++
		var sum int64
		for _, w := range rep.Workers {
			sum += all[obs.Labeled(base, "worker", strconv.Itoa(w.ID))]
		}
		if sum != fleet {
			t.Errorf("federation: %s fleet=%d, sum over workers=%d", base, fleet, sum)
		}
	}
	if families == 0 {
		t.Error("no {worker=\"fleet\"} counter series federated")
	}
}

// TestShardedWorkerDeathConverges is the fault-injection pin: SIGKILL one
// of two workers mid-search, the coordinator requeues its inflight leases
// for the survivor, and the run still converges to the single-process
// winner (lease outcomes are pure functions of the lease, so re-execution
// cannot change the answer).
func TestShardedWorkerDeathConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker fleets")
	}
	segs := segmentsFor(t, "reno")
	opts := quickOpts(dsl.Reno())

	single, err := core.Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}

	obsv := obs.New()
	co, err := NewCoordinator("", obsv, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// SHARD_POSTMORTEM_DIR lets CI keep the bundle as an artifact; tests
	// default to a scratch dir.
	pmDir := os.Getenv("SHARD_POSTMORTEM_DIR")
	if pmDir == "" {
		pmDir = t.TempDir()
	}
	co.PostmortemDir = pmDir
	ctx := context.Background()
	cmds, err := SpawnWorkers(ctx, 2, co.Addr(), "", 0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}()
	if err := co.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	jm := &jobMsg{
		ID:       "job-1",
		Name:     "fault",
		DSL:      opts.DSL,
		Metric:   metricName(opts),
		Segments: segs,
		Opts:     wireOptions(opts),
	}
	j := co.NewJob(jm, nil)

	// Kill one worker while every worker holds an inflight lease — then the
	// victim's lease is lost with near-certainty and the coordinator must
	// reissue it to the survivor.
	go func() {
		for {
			co.mu.Lock()
			busy := len(co.workers) == 2
			for _, wc := range co.workers {
				if len(wc.inflight) == 0 {
					busy = false
				}
			}
			co.mu.Unlock()
			if busy {
				cmds[0].Process.Kill()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	copts := opts
	copts.LeaseExec = j
	copts.Obs = obsv
	res, err := core.Synthesize(ctx, segs, copts)
	if err != nil {
		t.Fatal(err)
	}
	co.EndJob(j)
	rep := co.Report()

	if got, want := res.Handler.String(), single.Handler.String(); got != want {
		t.Errorf("handler after worker death %q, single-process %q", got, want)
	}
	if math.Float64bits(res.Distance) != math.Float64bits(single.Distance) {
		t.Errorf("distance after worker death %v, single-process %v", res.Distance, single.Distance)
	}
	if rep.Counters["shard.worker_deaths"] != 1 {
		t.Errorf("shard.worker_deaths = %d, want 1", rep.Counters["shard.worker_deaths"])
	}
	if rep.Counters["shard.leases_reissued"] == 0 {
		t.Error("no leases reissued after SIGKILL")
	}
	if !rep.Merged.Funnel.Reconciles() {
		t.Error("merged funnel does not reconcile after worker death")
	}
	var lost int
	for _, w := range rep.Workers {
		if w.Lost {
			lost++
		}
	}
	if lost != 1 {
		t.Errorf("report marks %d workers lost, want 1", lost)
	}
	// Federation stays exact across the death: the victim's folded deltas
	// are retained, only its unshipped tail is lost from both sides of the
	// equation equally.
	checkFederation(t, obsv, rep)

	// The death must have produced exactly one postmortem bundle with a
	// parseable meta header naming the lost worker.
	bundles, err := filepath.Glob(filepath.Join(pmDir, "postmortem-worker-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("found %d postmortem bundles, want 1 (%v)", len(bundles), bundles)
	}
	f, err := os.Open(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("postmortem bundle is empty")
	}
	var meta postmortemMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("postmortem meta line: %v", err)
	}
	if !strings.HasPrefix(meta.Postmortem, "worker-") || meta.Worker == 0 {
		t.Errorf("postmortem meta names %q (worker %d)", meta.Postmortem, meta.Worker)
	}
	if meta.Cause == "" {
		t.Error("postmortem meta has no cause")
	}
	var want *WorkerReport
	for i := range rep.Workers {
		if rep.Workers[i].Lost {
			want = &rep.Workers[i]
		}
	}
	if want != nil && meta.Worker != want.ID {
		t.Errorf("postmortem for worker %d, report lost worker %d", meta.Worker, want.ID)
	}
	// Every subsequent line must parse as a flight event (tail may be
	// empty if the worker died before its first beat carried one).
	events := 0
	for sc.Scan() {
		var ev obs.FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("postmortem flight line %d: %v", events+1, err)
		}
		events++
	}
	if events != meta.FlightLen {
		t.Errorf("postmortem has %d flight lines, meta says %d", events, meta.FlightLen)
	}
}

// TestShardedFederationNoDoubleCount pins the healthy-path federation
// contract on a 2-worker run with a fast heartbeat: the fleet aggregate
// equals the per-worker sum for every federated family, and — because
// every lease executed exactly once — the fleet's core.handlers_scored
// (counted at score time on the workers, shipped as deltas over two
// interleaved paths) equals the outcome-derived merge the coordinator
// computes independently from lease results.
func TestShardedFederationNoDoubleCount(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker fleets")
	}
	segs := segmentsFor(t, "reno")
	obsv := obs.New()
	_, rep, err := Synthesize(context.Background(), segs, Options{
		Workers:   2,
		Heartbeat: 25 * time.Millisecond,
		Core:      quickOpts(dsl.Reno()),
		Obs:       obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFederation(t, obsv, rep)

	all := obsv.CounterValues("")
	fleet := all[obs.Labeled("core.handlers_scored", "worker", "fleet")]
	if fleet == 0 {
		t.Fatal("fleet core.handlers_scored = 0")
	}
	var merged int64
	for _, w := range rep.Workers {
		merged += int64(w.Handlers)
		if got := w.Federated["core.handlers_scored"]; got != all[obs.Labeled("core.handlers_scored", "worker", strconv.Itoa(w.ID))] {
			t.Errorf("worker %d federated totals diverge from labeled series", w.ID)
		}
	}
	if fleet != merged {
		t.Errorf("fleet core.handlers_scored = %d, outcome-derived merge = %d (healthy run: must agree exactly)", fleet, merged)
	}

	if rep.Cluster == nil {
		t.Fatal("report has no cluster snapshot")
	}
	if len(rep.Cluster.Workers) != 2 {
		t.Fatalf("cluster snapshot has %d workers, want 2", len(rep.Cluster.Workers))
	}
	for _, cw := range rep.Cluster.Workers {
		if cw.LastBeatSec < 0 {
			t.Errorf("worker %d never heartbeat", cw.ID)
		}
		if cw.Handlers > 0 && cw.CandidatesPerSec <= 0 {
			t.Errorf("worker %d: %d handlers but candidates/sec = %v", cw.ID, cw.Handlers, cw.CandidatesPerSec)
		}
	}
}

// TestShardedFederationUnderReissue forces duplicate completions with an
// aggressive lease deadline: leases outliving 1ms are reissued while the
// original executor keeps running, so multiple workers complete the same
// lease. The duplicate's *result* is dropped (winner invariance below) but
// its telemetry is real work and must fold exactly once — fleet still
// equals the per-worker sum.
func TestShardedFederationUnderReissue(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker fleets")
	}
	segs := segmentsFor(t, "reno")
	opts := quickOpts(dsl.Reno())
	single, err := core.Synthesize(context.Background(), segs, opts)
	if err != nil {
		t.Fatal(err)
	}

	obsv := obs.New()
	res, rep, err := Synthesize(context.Background(), segs, Options{
		Workers:       2,
		LeaseDeadline: time.Millisecond,
		Heartbeat:     25 * time.Millisecond,
		Core:          opts,
		Obs:           obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["shard.leases_reissued"] == 0 {
		t.Error("1ms deadline reissued no leases — test exercised nothing")
	}
	if got, want := res.Handler.String(), single.Handler.String(); got != want {
		t.Errorf("handler under reissue races %q, single-process %q", got, want)
	}
	if math.Float64bits(res.Distance) != math.Float64bits(single.Distance) {
		t.Errorf("distance under reissue races %v, single-process %v", res.Distance, single.Distance)
	}
	checkFederation(t, obsv, rep)
}
