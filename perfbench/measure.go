package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide costs the end-to-end
// metrics are deltas of.
type procSample struct {
	at       time.Time
	cpu      float64 // user+sys seconds
	allocB   float64 // cumulative Go heap bytes allocated
	gcCPU    float64 // cumulative GC CPU seconds
	gcCycles float64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// sampleProc reads the process counters.
func sampleProc() procSample {
	s := procSample{at: time.Now(), cpu: cpuSeconds()}
	ms := make([]metrics.Sample, len(procMetrics))
	copy(ms, procMetrics)
	metrics.Read(ms)
	s.allocB = runtimeValue(ms[0].Value)
	s.gcCPU = runtimeValue(ms[1].Value)
	s.gcCycles = runtimeValue(ms[2].Value)
	return s
}

func runtimeValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	wall, cpu, allocB, gcCPU, gcCycles float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:     b.at.Sub(a.at).Seconds(),
		cpu:      b.cpu - a.cpu,
		allocB:   b.allocB - a.allocB,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: b.gcCycles - a.gcCycles,
	}
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's resident-set high-water mark in MB (10^6).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// median of xs (the mean of the two middle values for an even count);
// NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs; NaN when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibrate times a fixed pure-Go integer and float loop. It is a
// diagnostic of the machine's speed at that moment: runs whose
// calibration differs were made on a slower, busier or different host.
func calibrate() float64 {
	t0 := time.Now()
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&1023)*1e-9
	}
	calibSink = f + float64(x&1)
	return time.Since(t0).Seconds() * 1e3
}

var calibSink float64

// provenance identifies the run: inputs, host and build.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified,omitempty"`
	Host       string  `json:"host"`
	CalibMsA   float64 `json:"calib_ms_start"`
	CalibMsB   float64 `json:"calib_ms_end,omitempty"`
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

func goVersion() string { return strings.TrimPrefix(runtime.Version(), "go") }
