package sched

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
)

// BenchmarkSchedulerDispatch measures the scheduler's control-plane cost:
// the DES loop (priority selection, virtual-clock bookkeeping, estimator
// updates) plus the per-record queue-log appends, with job execution
// itself reduced to the fake executor's bookkeeping. Each iteration
// drains a whole fleet — tenants x cycles x 5 jobs — over a fresh queue
// log, so ns/op is the cost of scheduling one fleet drain, ns/job that
// cost per job, and allocs/op catches per-job garbage creeping into the
// dispatch path.
//
// The fleet-* cases price jobs with a fixed VirtualCost. The est-* cases
// price them the way a production run does, through the runtime
// estimator, fed by walls that vary per tenant, cycle and kind: cold
// tenants are priced at the fleet median while it moves. est-64x2,
// est-256x2 and est-1024x2 trace the cost per job against fleet size.
func BenchmarkSchedulerDispatch(b *testing.B) {
	run := func(b *testing.B, tenants, cycles, workers int, estimated bool) {
		b.Helper()
		ids := make([]catalog.RetailerID, tenants)
		tiers := map[catalog.RetailerID]Tier{}
		for i := range ids {
			ids[i] = catalog.RetailerID(fmt.Sprintf("r%04d", i))
			switch i % 3 {
			case 0:
				tiers[ids[i]] = TierHourly
			case 1:
				tiers[ids[i]] = TierBestEffort
			}
		}
		wantJobs := tenants * cycles * len(kindChain)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := Options{
				Workers: workers, MaxCycles: cycles,
				FS: dfs.New(), Executor: &fakeExec{},
				Tenants: ids, Tiers: tiers,
				VirtualCost: flatCost(10 * time.Minute),
			}
			if estimated {
				// 250µs..10ms walls at 6000x: 1.5s..1min virtual jobs.
				opts.Executor = &wallExec{seed: 1}
				opts.VirtualCost = nil
				opts.TimeScale = 6000
			}
			rep, err := New(nil, opts).Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if rep.JobsRun != wantJobs {
				b.Fatalf("ran %d jobs, want %d", rep.JobsRun, wantJobs)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wantJobs), "ns/job")
	}
	b.Run("fleet-16x4", func(b *testing.B) { run(b, 16, 4, 4, false) })
	b.Run("fleet-64x2", func(b *testing.B) { run(b, 64, 2, 8, false) })
	b.Run("est-16x4", func(b *testing.B) { run(b, 16, 4, 4, true) })
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("est-%dx2", n), func(b *testing.B) { run(b, n, 2, 8, true) })
	}
}
