package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sigmund"
)

// The rolling-fleet fleet: many small tenants, the largest fifth hourly
// and the smallest three tenths best-effort, each running rollingCycles
// cycles through the continuous scheduler.
var rollingShape = fleetShape{
	Tenants: 128, MinItems: 20, MaxItems: 80, Exponent: 1.2,
	UsersPerItem: 0.5, MinUsers: 10, EventsPerUser: 12, Days: 1,
	HourlyFraction: 0.2, BestEffortFraction: 0.3,
}

const rollingCycles = 2

// rollingConfig is the scheduler-driven service: the same pipeline stages
// as the daily batch, two virtual workers.
func rollingConfig() sigmund.Config {
	cfg := batchConfig()
	cfg.Journal = false // the scheduler's queue log is its recovery log
	cfg.Sched, cfg.SchedWorkers, cfg.SchedCycles = true, 2, rollingCycles
	return cfg
}

// drainResult is one scheduler drain as the benchmark saw it.
type drainResult struct {
	rep  sigmund.SchedReport
	wall time.Duration
}

type rollingEnv struct {
	fleet []fleetTenant
}

func newRollingEnv(seed uint64) (*rollingEnv, error) {
	return &rollingEnv{fleet: generateFleet(rollingShape, seed)}, nil
}

// newService registers the fleet with its tiers on a fresh service.
func (e *rollingEnv) newService() (*sigmund.Service, error) {
	svc := sigmund.NewService(rollingConfig())
	for _, ft := range e.fleet {
		if err := svc.AddRetailer(ft.Catalog, ft.Log); err != nil {
			svc.Close()
			return nil, err
		}
		if err := svc.SetTier(ft.Spec.ID, ft.Tier); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return svc, nil
}

// drain runs the scheduler to completion on a fresh service and checks the
// outcome.
func (e *rollingEnv) drain(r *run, t *tracer) (sigmund.SchedReport, time.Duration, error) {
	svc, err := e.newService()
	if err != nil {
		return sigmund.SchedReport{}, 0, err
	}
	defer svc.Close()
	var rep sigmund.SchedReport
	start := time.Now()
	if t != nil {
		t.do("service.run_sched", 0, 0, func(int64) { rep, err = svc.RunSched(context.Background()) })
	} else {
		rep, err = svc.RunSched(context.Background())
	}
	wall := time.Since(start)
	if err != nil {
		return rep, wall, fmt.Errorf("RunSched: %w", err)
	}
	e.checkDrain(r, svc, rep)
	return rep, wall, nil
}

// checkDrain counts every job, the publish count and every tenant probe.
func (e *rollingEnv) checkDrain(r *run, svc *sigmund.Service, rep sigmund.SchedReport) {
	r.attempted.Add(int64(rep.JobsRun))
	if rep.JobsFailed > 0 {
		r.failN(int64(rep.JobsFailed), fmt.Errorf("%d scheduler jobs failed", rep.JobsFailed))
	}
	r.check(checkPublishes(rep, len(e.fleet), rollingCycles))
	statuses := svc.TenantStatuses()
	served := map[sigmund.RetailerID][]sigmund.Recommendation{}
	var ids []sigmund.RetailerID
	for _, ft := range e.fleet {
		ids = append(ids, ft.Spec.ID)
		served[ft.Spec.ID] = probe(svc, ft.Spec.ID)
	}
	for _, err := range checkRollingTenants(ids, statuses, served, rep.MaxGen) {
		r.check(err)
	}
}

// staleness pools the report's per-publish staleness over tiers, in ms of
// the scheduler's virtual clock.
func staleness(rep sigmund.SchedReport, into *samples) {
	tiers := make([]string, 0, len(rep.Tiers))
	for t := range rep.Tiers {
		tiers = append(tiers, string(t))
	}
	sort.Strings(tiers)
	for _, t := range tiers {
		for _, d := range rep.Tiers[sigmund.SchedTier(t)].Staleness {
			into.addDur(d)
		}
	}
}

func runRolling(r *run) error {
	env, err := newRollingEnv(r.seed)
	if err != nil {
		return err
	}
	svc, setupS, err := timedSetups(env.newService, (*sigmund.Service).Close)
	if err != nil {
		return err
	}
	svc.Close()
	r.e2e("setup_s", setupS, "setup_s", "median set-up: service with the fleet and its tiers registered; "+setupNote)
	var (
		drains    samples
		stale     samples
		publishes int
		jobs      int
	)
	mw := startMemWatch()
	cpu0, start := cpuSeconds(), time.Now()
	for drains.n() == 0 || time.Since(start)+time.Since(start)/time.Duration(drains.n()) <= r.seconds {
		rep, wall, err := env.drain(r, nil)
		if err != nil {
			return err
		}
		drains.addDur(wall)
		staleness(rep, &stale)
		publishes += rep.Publishes
		jobs += rep.JobsRun
	}
	cpu, wall := cpuSeconds()-cpu0, time.Since(start)
	mem := mw.finish()
	tail := tailPercentile(stale.n(), 0.95)
	r.e2e("latency_p50_ms", stale.q(0.5), "staleness_p50_ms", fmt.Sprintf("virtual publish staleness pooled over tiers and %d drains, n=%d", drains.n(), stale.n()))
	r.e2e("latency_tail_ms", stale.q(tail), "staleness_p95_ms", fmt.Sprintf("p%g, virtual, pooled over tiers", tail*100))
	r.e2e("work_per_cpu_s", float64(publishes)/cpu, "publishes_per_cpu_s", fmt.Sprintf("%d tenant-cycle publishes, %d jobs, %.2f cores busy", publishes, jobs, cpu/wall.Seconds()))
	r.reportMem(mem, float64(drains.n()), "drain")
	r.say("drain_s", drains.q(0.5)/1e3, "s", fmt.Sprintf("median wall of one drain, n=%d", drains.n()))
	r.say("staleness_p50_s", stale.q(0.5)/1e3, "s", "virtual")
	r.say("staleness_p95_s", stale.q(tail)/1e3, "s", "virtual")
	r.reportFails("jobs, publish counts and tenant probes")
	return nil
}
