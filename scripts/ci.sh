#!/bin/sh
# CI entry point: formatting and module consistency, vet, build, the full
# suite under the race detector (shuffled, cache-busted), the short-mode
# chaos/degradation suites, and the benchmark regression gate. Mirrors
# `make ci`.
#
# Usage: ci.sh [stage]
#   fast   consistency gates + build + plain test suite (quick signal)
#   heavy  race suite, chaos suites, fuzz smoke, benchmark gate
#   all    both (default; what `make ci` runs)
#
# The stages exist so the GitHub workflow can fan them out as separate
# jobs: `fast` fails in a couple of minutes on formatting/vet/test
# breakage while `heavy` grinds through the race and chaos suites.
set -eu
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
	fast|heavy|all) ;;
	*) echo "usage: $0 [fast|heavy|all]" >&2; exit 2 ;;
esac

run_fast() {
	echo "== gofmt"
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "== go mod tidy -diff"
	# The module files must already be tidy; -diff fails (with the patch)
	# instead of rewriting them.
	go mod tidy -diff

	echo "== go vet"
	GOFLAGS=-mod=readonly go vet ./...

	echo "== go build"
	GOFLAGS=-mod=readonly go build ./...

	echo "== go test"
	go test -count=1 ./...
}

run_heavy() {
	echo "== go test -race (shuffled)"
	go test -race -shuffle=on -count=1 ./...

	echo "== chaos suite (short mode)"
	go test -race -short -run 'Chaos|Quarantine|Garbled|CheckpointWrite|Degraded|Stale' \
		./internal/pipeline/ ./internal/serving/ ./internal/faults/ ./internal/retry/

	echo "== worker-preemption chaos suite (short mode)"
	# Exercises the preemptible-worker substrate end to end: preemption
	# recovery, lease expiry, speculative execution, blacklisting, worker-
	# scoped fault rules, the byte-identical preempted pipeline day, and
	# mid-job cancellation (which fails on goroutine leaks).
	go test -race -short -run 'Preempt|Lease|Speculative|Blacklist|WorkerPlan|Cancellation|NoWorkers' \
		./internal/mapreduce/ ./internal/faults/ ./internal/core/inference/ ./internal/pipeline/

	echo "== serving-store chaos suite"
	# Replica crash mid-publish (no torn generations, zero failed requests),
	# hedged-read cancellation and drain (fails on goroutine leaks), failover,
	# load shedding, publish rollback, crash/revive catch-up, and serving
	# mixed-format (v1 carry-forward beside v2) generations.
	go test -race -short -run 'TornGeneration|Hedge|Failover|Shed|RollsBack|Revive|UniformlyStale|ContinuousChaos|CloseDrains|Ring|MixedFormat' \
		./internal/store/

	echo "== crash-resume chaos suite"
	# The day-journal codec (torn-tail repair, append rollback), checkpoint
	# temp-file hygiene, the coordinator crash sweep (crash after every
	# journal record, resume, byte-identical outputs), in-process incremental
	# resume, and the clean-abort cancellation path (fails on goroutine
	# leaks).
	go test -race -short -run 'CrashResume|Journal|Checkpointer|OrphanTmp' \
		./internal/pipeline/ ./internal/dfs/

	echo "== overload-control chaos suite"
	# The request control plane: token-bucket admission (determinism, per-
	# tenant fairness under a flood, zero-alloc fast path), power-of-two-
	# choices routing, autoscaler hysteresis/bounds/revive preference, the
	# brownout ladder, reject-reason accounting end to end, and the overload
	# + replica-kill drill (autoscaler restores capacity, no torn
	# generations, bounded admitted p99).
	go test -race -short -run 'TokenBucket|Admit|CheapRNG|PickTwo|Autoscale|Overload|Brownout|Reject' \
		./internal/store/ ./internal/serving/

	echo "== model-quality firewall chaos suite"
	# The publish-time guard: offline gates (NaN scores, collapsed and empty
	# rec lists, metric cliffs, coverage collapse), the degenerate-model
	# drill (vetoed tenants carry the previous generation forward, healthy
	# tenants publish byte-identically to a fault-free control), guard
	# verdict crash-resume, and the live canary path (deterministic traffic
	# split, auto-promote, auto-rollback, expiry on the next publish).
	go test -race -short -run 'Guard|Canary|Veto|Evaluate|Baseline' \
		./internal/guard/ ./internal/pipeline/ ./internal/store/

	echo "== continuous-scheduler chaos suite"
	# Queue-log torn-tail/corrupt-tail recovery, the kill-and-resume sweep
	# (crash after every queue-log record; resumed publishes byte-identical
	# to an uninterrupted control), the priority-aging starvation bound, the
	# multi-tier staleness soak, the keyed dispatch order against the
	# reference scan, and the service-layer crash-resume drill.
	go test -race -short -run 'Scheduler|QueueLog|ServiceSched|ServiceSetTier|Dispatch' \
		./internal/sched/ .

	echo "== storage-integrity chaos suite"
	# End-to-end bit-rot defense: the footer codec (round-trip, legacy
	# passthrough, detection on every read), deterministic BitFlip/Truncate
	# placement, the chaos drill (zero corrupt responses escape; the post-
	# repair fleet is byte-identical to an uninjected control), scrub GC ×
	# carry-forward retention, peer re-replication of deleted blobs, the
	# poison-free previous-generation fallback, and in-place appends that
	# keep the footer verified.
	go test -race -short -run 'Integrity|Scrub|Footer|BitFlip|Truncate|AtRest|WriteLegacy|CreateClose|ReviveHeals|PrepareWithout|CorruptionStreams|CorruptKind|Append' \
		./internal/dfs/ ./internal/faults/ ./internal/store/

	echo "== fuzz smoke"
	# A few seconds per fuzz target: journal recovery over arbitrary bytes,
	# the dfs integrity footer (verified/legacy/corrupt trichotomy under
	# arbitrary and bit-flipped inputs), segment decoding with hostile
	# length prefixes, and flat-segment lookups served straight off parsed
	# fuzzer-supplied bytes.
	go test -run '^$' -fuzz FuzzJournal -fuzztime 5s ./internal/dfs/
	go test -run '^$' -fuzz FuzzIntegrityFooter -fuzztime 5s ./internal/dfs/
	go test -run '^$' -fuzz FuzzSegmentDecode -fuzztime 5s ./internal/store/
	go test -run '^$' -fuzz FuzzSegmentLookup -fuzztime 5s ./internal/store/

	echo "== benchmark regression gate"
	go run ./scripts/benchcheck
}

case "$stage" in
	fast) run_fast ;;
	heavy) run_heavy ;;
	all) run_fast; run_heavy ;;
esac

echo "CI OK ($stage)"
