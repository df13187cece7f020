package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/replay"
)

// TestBatchMatchesScalarScoring is the lane-batched search's determinism
// pin: a default (batched) run must be bit-for-bit the run at lane width 1
// (one completion per ScoreBatchDetail call) — same winning handler, same distance bits, and a fully
// DeepEqual SearchStats, funnel stage splits included. Workers is 1 so
// bucket workers score sequentially: with a single worker the memo cache
// sees an identical candidate order in both modes, so even the
// stage-attribution split (canonical dup vs cache LB vs scored) must
// agree, not just the mode-invariant aggregates.
func TestBatchMatchesScalarScoring(t *testing.T) {
	t.Parallel()
	segs := segmentsFor(t, "reno")
	cases := []struct {
		seed  int64
		exact bool
	}{{1, false}, {42, false}, {1, true}}
	for _, tc := range cases {
		batchOpts := quickOpts(dsl.Reno())
		batchOpts.Seed = tc.seed
		batchOpts.Workers = 1
		batchOpts.ExactScoring = tc.exact
		scalarOpts := batchOpts
		scalarOpts.lanes = 1

		batch, err := Synthesize(context.Background(), segs, batchOpts)
		if err != nil {
			t.Fatalf("seed %d exact=%v batch: %v", tc.seed, tc.exact, err)
		}
		scalar, err := Synthesize(context.Background(), segs, scalarOpts)
		if err != nil {
			t.Fatalf("seed %d exact=%v scalar: %v", tc.seed, tc.exact, err)
		}
		if batch.Handler.Key() != scalar.Handler.Key() {
			t.Errorf("seed %d exact=%v: batch handler %q != scalar handler %q",
				tc.seed, tc.exact, batch.Handler, scalar.Handler)
		}
		if math.Float64bits(batch.Distance) != math.Float64bits(scalar.Distance) {
			t.Errorf("seed %d exact=%v: batch distance %v != scalar distance %v",
				tc.seed, tc.exact, batch.Distance, scalar.Distance)
		}
		if !reflect.DeepEqual(batch.Stats, scalar.Stats) {
			t.Errorf("seed %d exact=%v: search stats diverged:\nbatch:  %+v\nscalar: %+v",
				tc.seed, tc.exact, batch.Stats, scalar.Stats)
		}
		if !batch.Stats.Funnel.Reconciles() {
			t.Errorf("seed %d exact=%v: batch funnel does not reconcile: %+v",
				tc.seed, tc.exact, batch.Stats.Funnel)
		}
	}
}

// TestBatchMatchesScalarScoringParallel relaxes the single-worker pin to
// the properties that survive concurrent cache timing (like the fast-vs-
// exact test): the winner, its distance, NewBest, and reconciliation must
// be scheduling-independent at any lane width.
func TestBatchMatchesScalarScoringParallel(t *testing.T) {
	t.Parallel()
	segs := segmentsFor(t, "reno")
	batchOpts := quickOpts(dsl.Reno())
	scalarOpts := batchOpts
	scalarOpts.lanes = 1
	batch, err := Synthesize(context.Background(), segs, batchOpts)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Synthesize(context.Background(), segs, scalarOpts)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Handler.Key() != scalar.Handler.Key() {
		t.Errorf("batch handler %q != scalar handler %q", batch.Handler, scalar.Handler)
	}
	if math.Float64bits(batch.Distance) != math.Float64bits(scalar.Distance) {
		t.Errorf("batch distance %v != scalar distance %v", batch.Distance, scalar.Distance)
	}
	if batch.Stats.Funnel.NewBest != scalar.Stats.Funnel.NewBest {
		t.Errorf("batch NewBest %d != scalar NewBest %d",
			batch.Stats.Funnel.NewBest, scalar.Stats.Funnel.NewBest)
	}
	for _, res := range []*Result{batch, scalar} {
		if !res.Stats.Funnel.Reconciles() {
			t.Errorf("funnel does not reconcile: %+v", res.Stats.Funnel)
		}
	}
}

// TestBatchLedgerMatchesScalar: the provenance ledger of a batched run
// dumps byte-identical JSONL to a width-1 run of the same seed — lane
// packing must not change which candidates are offered or what their
// entries record.
func TestBatchLedgerMatchesScalar(t *testing.T) {
	t.Parallel()
	segs := segmentsFor(t, "reno")
	dump := func(scalarScoring bool) []byte {
		led := replay.NewLedger(48, 7)
		opts := quickOpts(dsl.Reno())
		opts.Workers = 1
		if scalarScoring {
			opts.lanes = 1
		}
		opts.Ledger = led
		if _, err := Synthesize(context.Background(), segs, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := led.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	scalar, batched := dump(true), dump(false)
	if len(scalar) == 0 {
		t.Fatal("scalar run offered nothing to the ledger")
	}
	if !bytes.Equal(scalar, batched) {
		t.Errorf("ledger dumps differ:\nscalar:\n%s\nbatch:\n%s", scalar, batched)
	}
}
