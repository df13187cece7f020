package enum

import (
	"fmt"
	"iter"
	"testing"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// outcome is what one enumeration shows its caller: the sketches in
// order, the candidates counter as of each yield, and the final counters.
type outcome struct {
	keys       []string
	atYield    []int64
	candidates int64
	sketches   int64
	exhausted  int64
}

// drain consumes seq, stopping after stopAfter sketches when stopAfter > 0.
func drain(seq iter.Seq[*dsl.Node], reg *obs.Registry, stopAfter int) outcome {
	var o outcome
	cand := reg.Counter("enum.candidates")
	for sk := range seq {
		o.keys = append(o.keys, sk.Key())
		o.atYield = append(o.atYield, cand.Value())
		if stopAfter > 0 && len(o.keys) >= stopAfter {
			break
		}
	}
	o.candidates = cand.Value()
	o.sketches = reg.Counter("enum.sketches").Value()
	o.exhausted = reg.Counter("enum.scan_budget_exhausted").Value()
	return o
}

// diffOutcomes describes the first way got differs from want.
func diffOutcomes(got, want outcome) error {
	for i := range min(len(got.keys), len(want.keys)) {
		if got.keys[i] != want.keys[i] {
			return fmt.Errorf("sketch %d = %s, oracle %s", i, got.keys[i], want.keys[i])
		}
		if got.atYield[i] != want.atYield[i] {
			return fmt.Errorf("enum.candidates at sketch %d = %d, oracle %d", i, got.atYield[i], want.atYield[i])
		}
	}
	if len(got.keys) != len(want.keys) {
		return fmt.Errorf("yielded %d sketches, oracle %d", len(got.keys), len(want.keys))
	}
	if got.candidates != want.candidates || got.sketches != want.sketches || got.exhausted != want.exhausted {
		return fmt.Errorf("(enum.candidates, enum.sketches, enum.scan_budget_exhausted) = (%d, %d, %d), oracle (%d, %d, %d)",
			got.candidates, got.sketches, got.exhausted, want.candidates, want.sketches, want.exhausted)
	}
	return nil
}

// compare runs both generators on the same enumeration — to its end, and
// again stopped by the caller halfway through — and describes the first
// difference.
func compare(d *dsl.DSL, memo, oracle func(*Enumerator) iter.Seq[*dsl.Node]) error {
	once := func(seq func(*Enumerator) iter.Seq[*dsl.Node], stopAfter int) outcome {
		e := New(d)
		e.Obs = obs.New()
		return drain(seq(e), e.Obs, stopAfter)
	}
	want := once(oracle, 0)
	if err := diffOutcomes(once(memo, 0), want); err != nil {
		return err
	}
	if half := len(want.keys) / 2; half > 0 {
		if err := diffOutcomes(once(memo, half), once(oracle, half)); err != nil {
			return fmt.Errorf("stopped after %d sketches: %v", half, err)
		}
	}
	return nil
}

func compareBucket(d *dsl.DSL, ops dsl.OpSet, limit int) error {
	return compare(d,
		func(e *Enumerator) iter.Seq[*dsl.Node] { return e.BucketLimited(ops, limit) },
		func(e *Enumerator) iter.Seq[*dsl.Node] { return oracleBucketLimited(e, ops, limit) })
}

var oracleDSLs = []func() *dsl.DSL{dsl.Reno, dsl.Cubic, dsl.Delay, dsl.Vegas}

// TestMemoMatchesOracle pins the memoized generator to the top-down one it
// replaced: per bucket and scan limit, the same sketches in the same order,
// the same candidate charge at every yield and at the end, the same
// exhaustion count, and the same behavior when the caller stops early.
// The largest limit runs on a fixed sample of buckets to keep the test
// quick; the fuzz target below covers the rest.
func TestMemoMatchesOracle(t *testing.T) {
	for _, mk := range oracleDSLs {
		d := mk()
		for _, limit := range []int{1, 2, 7, 100, 5000, 100000} {
			for i, ops := range New(d).Buckets() {
				if limit == 100000 && i%7 != 0 {
					continue
				}
				if err := compareBucket(d, ops, limit); err != nil {
					t.Fatalf("%s bucket %v, limit %d: %v", d.Name, ops, limit, err)
				}
			}
		}
	}
	if err := compare(dsl.Reno(), (*Enumerator).All, oracleAll); err != nil {
		t.Fatalf("reno, All: %v", err)
	}
}

// TestFullMemoMatchesOracle repeats the comparison with the memo bounded
// to a few trees, so reads past the end of lists that stopped growing —
// replays cloned from a paused run, including clones of clones — are
// pinned too.
func TestFullMemoMatchesOracle(t *testing.T) {
	defer func(n int) { memoEntries = n }(memoEntries)
	for _, bound := range []int{0, 5, 60, 2000} {
		memoEntries = bound
		for _, mk := range oracleDSLs {
			d := mk()
			for _, limit := range []int{7, 100, 5000} {
				for i, ops := range New(d).Buckets() {
					if i%5 != bound%5 {
						continue
					}
					if err := compareBucket(d, ops, limit); err != nil {
						t.Fatalf("memo bound %d, %s bucket %v, limit %d: %v", bound, d.Name, ops, limit, err)
					}
				}
			}
		}
		if err := compare(dsl.Reno(), (*Enumerator).All, oracleAll); err != nil {
			t.Fatalf("memo bound %d, reno, All: %v", bound, err)
		}
	}
	// Bounds at which a list stops growing while one of its own operand
	// loops is already replaying, so readers clone a replay.
	for _, c := range []struct {
		bound int
		ops   dsl.OpSet
	}{
		{59, dsl.OpSet(0).With(dsl.OpCube)},
		{59, dsl.OpSet(0).With(dsl.OpCond).With(dsl.OpModEq)},
		{77, dsl.OpSet(0).With(dsl.OpCube).With(dsl.OpCbrt)},
		{151, dsl.OpSet(0).With(dsl.OpCube).With(dsl.OpCbrt)},
	} {
		memoEntries = c.bound
		if err := compareBucket(dsl.Cubic(), c.ops, 5000); err != nil {
			t.Fatalf("memo bound %d, cubic bucket %v: %v", c.bound, c.ops, err)
		}
	}
}

func FuzzBucketLimitedVsOracle(f *testing.F) {
	f.Add(uint8(0), uint16(5), uint32(100))
	f.Add(uint8(1), uint16(200), uint32(20000))
	f.Add(uint8(2), uint16(33), uint32(1))
	f.Add(uint8(3), uint16(63), uint32(7000))
	f.Fuzz(func(t *testing.T, di uint8, bi uint16, limit uint32) {
		d := oracleDSLs[int(di)%len(oracleDSLs)]()
		keys := New(d).Buckets()
		ops := keys[int(bi)%len(keys)]
		// A positive limit keeps every case bounded; Reno's whole space is
		// small enough to also scan exhaustively.
		lim := 1 + int(limit%100000)
		if d.Name == "reno" && limit%3 == 0 {
			lim = 0
		}
		if err := compareBucket(d, ops, lim); err != nil {
			t.Fatalf("%s bucket %v, limit %d: %v", d.Name, ops, lim, err)
		}
	})
}
