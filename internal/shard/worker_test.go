package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
)

// TestExecuteLeaseRejectsBadSegmentIDs: an iteration lease naming a
// segment outside the job's list fails with an error at the frame
// boundary instead of panicking inside the lease runner, while an
// in-range lease still executes.
func TestExecuteLeaseRejectsBadSegmentIDs(t *testing.T) {
	segs := segmentsFor(t, "reno")
	j := &wjob{id: "j", segs: segs, opts: quickOpts(dsl.Reno())}
	defer func() {
		if j.runner != nil {
			j.runner.Close()
		}
	}()
	ctx := context.Background()
	for _, id := range []int{-1, len(segs)} {
		lease := &leaseMsg{ID: 1, JobID: "j", Iter: &core.IterationLease{SegmentIDs: []int{0, id}}}
		if _, err := executeLease(ctx, j, lease); err == nil {
			t.Errorf("segment ID %d accepted", id)
		}
	}
	lease := &leaseMsg{ID: 2, JobID: "j", Iter: &core.IterationLease{SegmentIDs: []int{0, len(segs) - 1}}}
	if _, err := executeLease(ctx, j, lease); err != nil {
		t.Errorf("in-range lease: %v", err)
	}
}
