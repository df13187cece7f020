package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dsl"
)

// TestLeaseExecPure pins the property sharded exactness rests on: a
// lease's outcomes are a pure function of the lease, whatever the runner
// executed before it. One lease runs on a fresh runner; the same lease
// then runs on a second runner that first executed a lease over a
// different segment subset, and again on that runner (reusing its
// scorer). Every bucket outcome must agree bit for bit.
func TestLeaseExecPure(t *testing.T) {
	segs := segmentsFor(t, "reno")
	if len(segs) < 5 {
		t.Fatalf("only %d segments", len(segs))
	}
	opts := quickOpts(dsl.Reno())
	newRunner := func() *LeaseRunner {
		lr, err := NewLeaseRunner(segs, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lr.Close)
		return lr
	}
	fresh := newRunner()
	keys := fresh.r.src.Buckets()
	if len(keys) > 64 {
		keys = keys[:64]
	}
	lease := func(setID uint64, ids []int) IterationLease {
		l := IterationLease{
			Iteration:  1,
			Samples:    opts.InitialSamples,
			PerBucket:  budgetShare(opts.MaxHandlers, len(keys)),
			SegmentIDs: ids,
			SetID:      setID,
		}
		for _, k := range keys {
			l.Buckets = append(l.Buckets, LeaseBucket{Ops: k, Best: math.Inf(1)})
		}
		return l
	}
	ctx := context.Background()
	target := lease(1, []int{0, 2, 4})
	want := fresh.Exec(ctx, target)

	used := newRunner()
	used.Exec(ctx, lease(2, []int{1, 3}))
	for run := 1; run <= 2; run++ {
		got := used.Exec(ctx, target)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d outcomes, want %d", run, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Ops != w.Ops || g.Scored != w.Scored ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
				g.Handlers != w.Handlers || g.SketchesTaken != w.SketchesTaken ||
				g.Exhausted != w.Exhausted || g.Pruned != w.Pruned ||
				!reflect.DeepEqual(g.Funnel, w.Funnel) ||
				nodeString(g.Handler) != nodeString(w.Handler) ||
				nodeString(g.Sketch) != nodeString(w.Sketch) {
				t.Errorf("run %d, bucket %s: got %+v, want %+v", run, w.Ops, g, w)
			}
		}
	}

	handlers, improved := 0, 0
	for _, o := range want {
		handlers += o.Handlers
		if o.Handler != nil {
			improved++
		}
	}
	if handlers == 0 || improved == 0 {
		t.Fatalf("vacuous lease: %d handlers, %d improving buckets", handlers, improved)
	}
}

func nodeString(n *dsl.Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.String()
}
