package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// warmFamilies are the warm-daemon traces: jobs alternate between the
// reno family and the cubic family, and each family cycles through its
// CCAs.
var warmFamilies = [2][]scenario{
	grid([]string{"reno", "westwood", "scalable"}, warmNets),
	grid([]string{"cubic", "bic"}, warmNets),
}

var warmNets = []scenario{
	{rtt: 40 * time.Millisecond, mbps: 10},
	{rtt: 100 * time.Millisecond, mbps: 15},
}

// warmClients is the closed loop's client count: nproc of the 2-core
// machine the benchmark was sized on.
const warmClients = 2

// jobTimeout fails a job whose result does not arrive.
const jobTimeout = 120 * time.Second

// warmCorpora are the daemon's prewarmed sub-DSLs.
var warmCorpora = []string{"reno", "cubic"}

// daemon is an in-process synthesis daemon: the service with its job API
// mounted on a loopback observability server, as service.RunDaemon
// assembles it.
type daemon struct {
	reg *obs.Registry
	svc *service.Service
	srv *obs.Server
}

// startDaemon brings a daemon up over the snapshot directory, prewarming
// (restoring, when snapshots exist) every corpus before it starts its
// workers. prewarm is the time spent in the Prewarm calls.
func startDaemon(ctx context.Context, dir string) (d *daemon, prewarm float64, err error) {
	reg := obs.New()
	reg.EnableFlight(obs.DefaultFlightEvents)
	hub := obs.NewEventHub()
	reg.Attach(hub)
	observe(reg)
	svc := service.New(service.Config{Workers: warmClients, SnapshotDir: dir, Obs: reg})
	srv, err := obs.Serve("127.0.0.1:0", reg, hub, svc.Mounts()...)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for _, name := range warmCorpora {
		if err := svc.Prewarm(ctx, name); err != nil {
			srv.Close()
			svc.Close()
			return nil, 0, fmt.Errorf("prewarm %s: %w", name, err)
		}
	}
	prewarm = time.Since(t0).Seconds()
	svc.Start()
	return &daemon{reg: reg, svc: svc, srv: srv}, prewarm, nil
}

// stop shuts the daemon down; the service persists its corpora as it
// closes. The daemon's memory is handed back to the OS, as the exit of a
// daemon process would, so the next start's peak RSS is its own.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if cerr := d.svc.Close(); err == nil {
		err = cerr
	}
	debug.FreeOSMemory()
	return err
}

// warmJob is one client-observed job.
type warmJob struct {
	outcome
	family int // 0 reno family, 1 cubic family
	submit float64
	status service.JobStatus
}

// runWarm is the warm-daemon workload. Set-up simulates the traces,
// builds both corpora cold and snapshots them (corpus.prewarm_s), then
// restarts the daemon over the snapshots setupReps times; setup_s is the
// median restart time. Two closed-loop clients then alternate
// reno-family and cubic-family jobs against the last daemon.
func runWarm(cfg config) (*runResult, error) {
	reno, cubic := cfg.pick(warmFamilies[0]), cfg.pick(warmFamilies[1])
	all, err := generate(cfg.seed, append(append([]scenario(nil), reno...), cubic...))
	if err != nil {
		return nil, err
	}
	families := [2][]*input{all[:len(reno)], all[len(reno):]}
	bodies := map[*input][]byte{}
	for _, in := range all {
		b, err := json.Marshal(service.JobSpec{
			HintCCA:  in.cca,
			Budget:   cfg.budget,
			Seed:     searchSeed,
			Name:     in.name,
			TraceB64: base64.StdEncoding.EncodeToString(in.pcap),
		})
		if err != nil {
			return nil, err
		}
		bodies[in] = b
	}
	dir := filepath.Join(cfg.dir, "snapshots")
	ctx := context.Background()

	r := &runResult{}
	cold, coldPrewarm, err := startDaemon(ctx, dir)
	if err != nil {
		return nil, err
	}
	if err := cold.stop(); err != nil {
		return nil, fmt.Errorf("persisting the cold corpora: %w", err)
	}
	var (
		d            *daemon
		setups, load []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		t0 := time.Now()
		var pw float64
		d, pw, err = startDaemon(ctx, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		load = append(load, pw)
		var restartErr error
		c := d.reg.CounterValues("corpus.registry_")
		if c["corpus.registry_snapshot_loads"] != int64(len(warmCorpora)) || c["corpus.registry_builds"] != 0 {
			restartErr = fmt.Errorf("warm restart %d: %d snapshot loads, %d cold builds (want %d, 0)",
				i, c["corpus.registry_snapshot_loads"], c["corpus.registry_builds"], len(warmCorpora))
		}
		r.checks = append(r.checks, restartErr)
		if i < cfg.setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	r.setupS = median(setups)

	base := "http://" + d.srv.Addr() + service.APIPrefix
	client := &http.Client{}
	before := d.reg.CounterValues("")
	var jobs []warmJob
	// The clients work in rounds: each submits one job, one from each
	// family, and both wait until both jobs are done. Free-running clients
	// overlapped each other's jobs at random, which alone moved one trace's
	// time by ±30% within a run. Rounds continue past the deadline until
	// every trace has had a job, so dist_ratio covers all of them.
	rounds := max(len(reno), len(cubic))
	p0 := sampleProc()
	deadline := p0.at.Add(cfg.dur)
	for k := 0; k < rounds || time.Now().Before(deadline); k++ {
		round := make([]warmJob, warmClients)
		var wg sync.WaitGroup
		for c := range round {
			fam := (k + c) % 2
			in := families[fam][k%len(families[fam])]
			wg.Add(1)
			go func() {
				defer wg.Done()
				round[c] = submitAndWait(client, base, in, bodies[in])
				round[c].family = fam
			}()
		}
		wg.Wait()
		jobs = append(jobs, round...)
	}
	r.proc = p0.to(sampleProc())
	r.wall = r.proc.wall

	var famLat [2][]float64
	for _, j := range jobs {
		r.outcomes = append(r.outcomes, j.outcome)
		if j.err == nil {
			famLat[j.family] = append(famLat[j.family], j.latency.Seconds())
		}
	}
	// The two families' run times differ, so a median over the mix would
	// fall between them and jump from run to run; the geometric mean of the
	// family medians does not.
	r.handlerP50 = geomean([]float64{median(famLat[0]), median(famLat[1])})
	if cfg.traced {
		warmLayers(cfg, r, d, before, jobs, families, coldPrewarm, median(load))
	}
	r.checks = append(r.checks, d.stop())
	return r, nil
}

// warmLayers fills the traced run's per-layer metrics from the daemon's
// registry and the jobs' service timestamps, and checks one job per family
// against a standalone cold synthesis of the same trace: warm must equal
// cold.
func warmLayers(cfg config, r *runResult, d *daemon, before map[string]int64, jobs []warmJob, families [2][]*input, prewarm, load float64) {
	delta := counterDelta(before, d.reg.CounterValues(""))
	n := float64(len(jobs))
	l := registryLayers(delta, n, r.proc)
	var submit, wait, runS []float64
	packets, segments := 0, 0
	for _, j := range jobs {
		packets += j.in.packets
		segments += len(j.in.segs)
		if j.err != nil || j.status.StartedAt == nil || j.status.FinishedAt == nil {
			continue
		}
		submit = append(submit, j.submit)
		wait = append(wait, j.status.StartedAt.Sub(j.status.SubmittedAt).Seconds())
		runS = append(runS, j.status.FinishedAt.Sub(*j.status.StartedAt).Seconds())
	}
	l["trace.packets"] = float64(packets) / n
	l["trace.segments"] = float64(segments) / n
	l["service.submit_s_p50"] = median(submit)
	l["service.queue_wait_s_p50"] = median(wait)
	l["service.run_s_p50"] = median(runS)
	l["corpus.prewarm_s"] = prewarm
	l["corpus.snapshot_load_s"] = load
	syn := d.reg.Report().Phases["core.synthesize"].TotalSec
	l["core.synthesize_s"] = syn / n
	l["core.score_self_s"] = l["core.worker_busy_s"]
	l["core.util"] = ratio(l["core.worker_busy_s"]*n, r.wall*float64(cfg.procs))
	r.layers = l

	for fam := range families {
		for _, j := range jobs {
			if j.family == fam && j.err == nil {
				ref, _ := coldSynth(context.Background(), j.in, cfg.budget, nil)
				r.checks = append(r.checks, sameAnswer("standalone cold vs warm daemon", ref, j.outcome))
				break
			}
		}
	}
}

// submitAndWait POSTs one job and polls its result, like
// `abagnaled submit -wait`.
func submitAndWait(client *http.Client, base string, in *input, body []byte) warmJob {
	j := warmJob{outcome: outcome{in: in}}
	t0 := time.Now()
	var st service.JobStatus
	if err := post(client, base+"/jobs", body, &st); err != nil {
		j.err = fmt.Errorf("%s: submit: %w", in.name, err)
		return j
	}
	j.submit = time.Since(t0).Seconds()
	for {
		var res service.JobResult
		code, err := get(client, base+"/jobs/"+st.ID+"/result", &res)
		if err != nil {
			j.err = fmt.Errorf("%s: result: %w", in.name, err)
			return j
		}
		if code == http.StatusOK {
			j.latency = time.Since(t0)
			j.handler = res.Synthesis.Handler
			j.dist = float64(res.Synthesis.Distance)
			if res.Synthesis.Interrupted {
				j.err = fmt.Errorf("%s: search interrupted", in.name)
			}
			break
		}
		if time.Since(t0) > jobTimeout {
			j.err = fmt.Errorf("%s: no result after %v", in.name, jobTimeout)
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := get(client, base+"/jobs/"+st.ID, &j.status); err != nil {
		j.err = fmt.Errorf("%s: status: %w", in.name, err)
	}
	return j
}

// get fetches url into v; 200 and 202 are both answers, anything else is
// an error.
func get(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.Unmarshal(b, v)
	}
	return resp.StatusCode, nil
}

// post sends a JSON request body and decodes the 202 reply.
func post(client *http.Client, url string, body []byte, v any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
