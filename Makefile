# Developer entry points. `make bench` appends to the bench/ directory so
# benchmark trajectories (BENCH_* files) accumulate across PRs and can be
# diffed by future performance work.

GO ?= go

.PHONY: build test race vet bench bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	@mkdir -p bench
	$(GO) test -bench=. -benchmem -run='^$$' . | tee bench/BENCH_$$(date -u +%Y%m%d-%H%M%S).txt

# bench-compare runs the fast component micro-benchmarks (scoring, replay
# VM, DTW, obs, pcap ingestion, batch synthesis, sketch enumeration,
# snapshot restore), records them as bench/BENCH_*.json, and diffs ns/op,
# B/op, allocs/op, and cells/op against the previous snapshot — exiting
# nonzero when any cost metric regresses by more than THRESH (fraction; CI
# uses a looser value to absorb cross-machine noise).
THRESH ?= 0.20
bench-compare:
	@mkdir -p bench
	$(GO) test -bench='ScoreHandler|ReplayProgram|DTWDistance|TraceAnalysis|Obs|PcapRead|BatchSynthesize|BatchSequential|EvalSeriesBatch|ShardedSynthesize|EnumerateRenoSpace|EnumerateCubicBuckets|SnapshotRestore' -benchmem -run='^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchdiff -record -dir bench -threshold $(THRESH)
