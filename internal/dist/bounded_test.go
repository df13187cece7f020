package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// randomSeries builds a well-formed series from a seeded rng: a noisy
// AIMD-ish curve so distances land in interesting ranges.
func randomSeries(rng *rand.Rand, n int) Series {
	s := Series{Times: make([]float64, n), Values: make([]float64, n)}
	v := 5 + 20*rng.Float64()
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() * 0.1
		s.Times[i] = t
		if rng.Float64() < 0.05 {
			v /= 2
		} else {
			v += rng.Float64()
		}
		s.Values[i] = v
	}
	return s
}

// TestDistanceWithinInfMatchesDistance is the differential identity the
// fast path rests on: with no cutoff, the bounded kernels must reproduce
// Distance bit for bit, for every metric.
func TestDistanceWithinInfMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		a := randomSeries(rng, 50+rng.Intn(300))
		b := randomSeries(rng, 50+rng.Intn(300))
		for _, m := range Metrics() {
			bm := m.(BoundedMetric)
			want := m.Distance(a, b)
			got := bm.DistanceWithin(a, b, math.Inf(1))
			if got != want {
				t.Fatalf("trial %d: %s.DistanceWithin(+Inf) = %v, Distance = %v",
					trial, m.Name(), got, want)
			}
			if got2 := DistanceWithin(m, a, b, math.Inf(1)); got2 != want {
				t.Fatalf("trial %d: package DistanceWithin(%s) = %v, Distance = %v",
					trial, m.Name(), got2, want)
			}
		}
	}
}

// TestDistanceWithinContract checks the BoundedMetric contract across a
// sweep of cutoffs: the result is always a lower bound on the exact
// distance, and any result < cutoff equals the exact distance bit for bit.
func TestDistanceWithinContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		a := randomSeries(rng, 100+rng.Intn(200))
		b := randomSeries(rng, 100+rng.Intn(200))
		for _, m := range Metrics() {
			bm := m.(BoundedMetric)
			exact := m.Distance(a, b)
			for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1.0, 1.001, 2, 100} {
				cutoff := exact * frac
				got := bm.DistanceWithin(a, b, cutoff)
				if got > exact {
					t.Fatalf("%s cutoff=%v: result %v exceeds exact %v (not a lower bound)",
						m.Name(), cutoff, got, exact)
				}
				if got < cutoff && got != exact {
					t.Fatalf("%s cutoff=%v: result %v < cutoff but != exact %v",
						m.Name(), cutoff, got, exact)
				}
			}
		}
	}
}

// TestPreparedDistanceWithinExactFlag checks the richer prepared API: the
// exact flag must be authoritative in both directions.
func TestPreparedDistanceWithinExactFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		a := randomSeries(rng, 150)
		b := randomSeries(rng, 150)
		for _, m := range Metrics() {
			p := Prepare(m, a)
			sc := NewScratch()
			exactD := m.Distance(a, b)
			for _, frac := range []float64{0.2, 0.9, 1.1, math.Inf(1)} {
				d, o := PreparedDistanceDetail(m, p, b, exactD*frac, sc)
				exact := o.Exact()
				if exact && d != exactD {
					t.Fatalf("%s: flagged exact but %v != %v", m.Name(), d, exactD)
				}
				if !exact && d > exactD {
					t.Fatalf("%s: inexact result %v exceeds exact %v", m.Name(), d, exactD)
				}
			}
		}
	}
}

// TestPreparedMalformedSeries mirrors Distance's +Inf behavior for
// malformed input through the prepared path.
func TestPreparedMalformedSeries(t *testing.T) {
	good := ramp(100, 1, 0)
	bad := Series{Times: []float64{0, 1}, Values: []float64{1, math.NaN()}}
	for _, m := range Metrics() {
		d, o := PreparedDistanceDetail(m, Prepare(m, good), bad, 0.5, NewScratch())
		if !math.IsInf(d, 1) || !o.Exact() {
			t.Errorf("%s vs NaN series: (%v, %v), want (+Inf, true)", m.Name(), d, o.Exact())
		}
		d, o = PreparedDistanceDetail(m, Prepare(m, bad), good, 0.5, NewScratch())
		if !math.IsInf(d, 1) || !o.Exact() {
			t.Errorf("%s with NaN prepared: (%v, %v), want (+Inf, true)", m.Name(), d, o.Exact())
		}
	}
}

// TestEnvelope brute-forces the sliding-window min/max against the deque
// implementation.
func TestEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, band := range []int{0, 1, 3, 17, 500} {
		xs := make([]float64, 120)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		env := NewEnvelope(xs, band)
		for i := range xs {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := i - band; j <= i+band; j++ {
				if j < 0 || j >= len(xs) {
					continue
				}
				lo = math.Min(lo, xs[j])
				hi = math.Max(hi, xs[j])
			}
			if env.Lower[i] != lo || env.Upper[i] != hi {
				t.Fatalf("band %d idx %d: envelope (%v,%v), brute (%v,%v)",
					band, i, env.Lower[i], env.Upper[i], lo, hi)
			}
		}
	}
}

// TestBoundedCounters checks that aggressive cutoffs actually travel the
// pruning paths and bump the new instruments.
func TestBoundedCounters(t *testing.T) {
	reg := obs.New()
	Observe(reg)
	defer Observe(nil)
	a := sawtooth(300, 2, 0)
	b := ramp(300, 3, 40) // far away: tiny cutoffs prune immediately
	for _, m := range Metrics() {
		bm := m.(BoundedMetric)
		exact := m.Distance(a, b)
		bm.DistanceWithin(a, b, exact/1e6)
	}
	rep := reg.Report()
	if rep.Counters["dist.lb_prunes"]+rep.Counters["dist.early_abandons"] == 0 {
		t.Errorf("no prunes/abandons recorded: %+v", rep.Counters)
	}
}

// FuzzDistanceWithin fuzzes the differential identity: whatever the series
// shapes, DistanceWithin with +Inf cutoff equals Distance, and a finite
// cutoff never yields more than the exact distance.
func FuzzDistanceWithin(f *testing.F) {
	f.Add(int64(1), 50, 60, 0.5)
	f.Add(int64(42), 3, 400, 1.5)
	f.Add(int64(-7), 1, 1, 0.0)
	f.Add(int64(99), 200, 200, 100.0)
	f.Fuzz(func(t *testing.T, seed int64, na, nb int, cutFrac float64) {
		if na < 1 || na > 600 || nb < 1 || nb > 600 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := randomSeries(rng, na)
		b := randomSeries(rng, nb)
		for _, m := range Metrics() {
			bm := m.(BoundedMetric)
			exact := m.Distance(a, b)
			if got := bm.DistanceWithin(a, b, math.Inf(1)); got != exact {
				t.Fatalf("%s: DistanceWithin(+Inf)=%v != Distance=%v", m.Name(), got, exact)
			}
			if math.IsNaN(cutFrac) || math.IsInf(cutFrac, 0) || cutFrac < 0 {
				continue
			}
			got := bm.DistanceWithin(a, b, exact*cutFrac)
			if got > exact {
				t.Fatalf("%s: bounded result %v exceeds exact %v", m.Name(), got, exact)
			}
		}
	})
}
