GO ?= go

.PHONY: all build fmt-check vet test race chaos chaos-workers chaos-store chaos-resume chaos-overload chaos-guard chaos-sched chaos-integrity fuzz-smoke bench-check bench-update ci clean

all: ci

build:
	$(GO) build ./...

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The full suite under the race detector, shuffled and cache-busted.
race:
	$(GO) test -race -shuffle=on -count=1 ./...

# The short-mode chaos suite: per-tenant fault injection, quarantine
# lifecycle, checkpoint corruption, and stale-serving degradation.
chaos:
	$(GO) test -race -short -run 'Chaos|Quarantine|Garbled|CheckpointWrite|Degraded' ./internal/pipeline/ ./internal/serving/ ./internal/faults/ ./internal/retry/

# The worker-preemption chaos suite: preemption recovery, lease expiry,
# speculative execution, blacklisting, worker-scoped fault rules, the
# byte-identical preempted pipeline day, and mid-job cancellation (fails
# on goroutine leaks).
chaos-workers:
	$(GO) test -race -short -run 'Preempt|Lease|Speculative|Blacklist|WorkerPlan|Cancellation' ./internal/mapreduce/ ./internal/faults/ ./internal/core/inference/ ./internal/pipeline/

# The serving-store chaos suite: replica crash mid-publish (no torn
# generations, zero failed requests), hedged-read cancellation and drain
# (fails on goroutine leaks), failover, load shedding, publish rollback,
# crash/revive catch-up, a carried-forward segment served through hedged
# reads and the hot-key cache, and answers labelled with the generation
# that produced them while publishes land mid-request.
chaos-store:
	$(GO) test -race -short -run 'TornGeneration|Hedge|Failover|Shed|RollsBack|Revive|UniformlyStale|ContinuousChaos|CloseDrains|Ring|CarryForward|Labels' ./internal/store/

# The crash-resume chaos suite: the day-journal codec (torn-tail repair,
# append rollback), checkpoint temp-file hygiene, the full coordinator
# crash sweep (crash after every journal record, resume, byte-identical
# outputs), in-process incremental resume, the clean-abort cancellation
# path (fails on goroutine leaks), and the recs blob reloading bit for bit
# equal to inference's output.
chaos-resume:
	$(GO) test -race -short -run 'CrashResume|Journal|Checkpointer|OrphanTmp|LoadTenantRecs' ./internal/pipeline/ ./internal/dfs/

# The overload-control chaos suite: token-bucket admission (determinism,
# per-tenant fairness under a flood, zero-alloc fast path), power-of-two-
# choices routing, autoscaler hysteresis/bounds/revive, the brownout
# ladder, reject-reason accounting, and the overload + replica-kill drill
# (autoscaler restores capacity, no torn generations, bounded p99).
chaos-overload:
	$(GO) test -race -short -run 'TokenBucket|Admit|CheapRNG|PickTwo|Autoscale|Overload|Brownout|Reject' ./internal/store/ ./internal/serving/

# The model-quality firewall chaos suite: offline gates (NaN, collapse,
# metric cliff, coverage), the degenerate-model drill (vetoed tenants
# carry forward, healthy tenants byte-identical to control), guard
# verdict crash-resume, and the live canary (split, auto-promote,
# auto-rollback, expiry).
chaos-guard:
	$(GO) test -race -short -run 'Guard|Canary|Veto|Evaluate|Baseline' ./internal/guard/ ./internal/pipeline/ ./internal/store/

# Continuous-scheduler chaos: the queue-log torn-tail/corrupt-tail
# recovery drills, the kill-and-resume sweep (crash after every queue-log
# record; resumed publishes byte-identical to an uninterrupted control),
# the priority-aging starvation bound, the multi-tier staleness soak, the
# keyed dispatch order against the reference scan, and the scheduler's
# crash-resume drill at the service layer.
chaos-sched:
	$(GO) test -race -short -run 'Scheduler|QueueLog|ServiceSched|ServiceSetTier|Dispatch' ./internal/sched/ .

# Storage-integrity chaos: the footer codec (round-trip, footerless blobs
# read as corrupt, rot detection on every read), deterministic
# BitFlip/Truncate placement, the
# end-to-end bit-rot drill (zero corrupt responses escape; post-repair
# fleet byte-identical to an uninjected control), scrub GC × carry-forward
# retention, peer re-replication of deleted blobs, the poison-free
# previous-generation fallback, and in-place appends that keep the footer
# verified (bit flips, injected failures, concurrent readers).
chaos-integrity:
	$(GO) test -race -short -run 'Integrity|Scrub|Footer|BitFlip|Truncate|AtRest|CreateClose|ReviveHeals|CorruptionStreams|CorruptKind|Append' ./internal/dfs/ ./internal/faults/ ./internal/store/

# Fuzz smoke: a few seconds per fuzz target (journal recovery, the dfs
# integrity footer, segment decoding) so hostile-input regressions surface
# in CI without a dedicated fuzz farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime 5s ./internal/dfs/
	$(GO) test -run '^$$' -fuzz FuzzIntegrityFooter -fuzztime 5s ./internal/dfs/
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzSegmentLookup -fuzztime 5s ./internal/store/

# Benchmark regression gate: BenchmarkMapReduce, BenchmarkRunDay,
# BenchmarkServeRouted, and BenchmarkServeAdmitted vs the committed
# BENCH_*.json baselines (>25% ns/op regression fails).
bench-check:
	$(GO) run ./scripts/benchcheck

# Refresh the committed baselines (new hardware / intentional perf change).
bench-update:
	$(GO) run ./scripts/benchcheck -update

ci: fmt-check vet build race chaos chaos-workers chaos-store chaos-resume chaos-overload chaos-guard chaos-sched chaos-integrity fuzz-smoke bench-check

clean:
	$(GO) clean ./...
