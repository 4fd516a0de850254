package main

import (
	"context"
	"fmt"
	"time"

	"sigmund"
)

// The daily-batch fleet: a power-law spread of catalog sizes whose events
// span batchWindows simulated days. Day 0 onboards the first
// batchHistory days of history with a full sweep; each following day
// appends one more day of events and re-trains incrementally.
var batchShape = fleetShape{
	Tenants: 32, MinItems: 40, MaxItems: 2000, Exponent: 1.2,
	UsersPerItem: 0.5, MinUsers: 120, EventsPerUser: 12, Days: batchHistory + batchIncrDays,
}

const (
	batchHistory  = 4
	batchIncrDays = 2
)

// batchConfig is the service the daily batch runs: the small grid,
// journal, guard and the sharded store on, one Hogwild thread per model so
// the fleet's MAP@10 repeats exactly.
func batchConfig() sigmund.Config {
	cfg := sigmund.DemoConfig()
	cfg.TrainWorkers, cfg.TrainThreads = 2, 1
	cfg.Journal, cfg.Guard = true, true
	cfg.Shards, cfg.Replicas = 4, 2
	return cfg
}

// batchEnv is the daily batch's generated input: the fleet and each
// tenant's events cut into days.
type batchEnv struct {
	fleet []fleetTenant
	days  [][]*sigmund.Log // days[d][i]: tenant i's events delivered before day d
}

func newBatchEnv(seed uint64) (*batchEnv, error) {
	e := &batchEnv{fleet: generateFleet(batchShape, seed)}
	for d := 0; d <= batchIncrDays; d++ {
		from, to := int64(d+batchHistory-1), int64(d+batchHistory)
		if d == 0 {
			from = 0
		}
		logs := make([]*sigmund.Log, len(e.fleet))
		for i, t := range e.fleet {
			logs[i] = t.Log.Window(from*sigmund.TicksPerDay, to*sigmund.TicksPerDay)
		}
		e.days = append(e.days, logs)
	}
	return e, nil
}

// dayResult is one RunDay as the benchmark saw it.
type dayResult struct {
	report sigmund.DayReport
	wall   time.Duration
	full   bool
	vetoes int // tenants the guard vetoed
}

// batchService is a service with the fleet registered, each tenant on an
// empty log the days' events are delivered into.
type batchService struct {
	svc  *sigmund.Service
	logs []*sigmund.Log
}

// newService registers the fleet on a fresh service.
func (e *batchEnv) newService() (batchService, error) {
	b := batchService{svc: sigmund.NewService(batchConfig()), logs: make([]*sigmund.Log, len(e.fleet))}
	for i, ft := range e.fleet {
		b.logs[i] = sigmund.NewLog()
		if err := b.svc.AddRetailer(ft.Catalog, b.logs[i]); err != nil {
			b.svc.Close()
			return b, err
		}
	}
	return b, nil
}

// week runs one service through the full-sweep day and the incremental
// days, checking every day, and returns the days. Storage traffic comes
// back for the traced run.
func (e *batchEnv) week(r *run, t *tracer) ([]dayResult, *sigmund.Service, error) {
	b, err := e.newService()
	if err != nil {
		return nil, nil, err
	}
	svc, logs := b.svc, b.logs
	var out []dayResult
	for d, delivered := range e.days {
		for i, l := range delivered {
			for _, ev := range l.Events() {
				logs[i].Append(ev)
			}
		}
		var (
			rep sigmund.DayReport
			err error
		)
		start := time.Now()
		if t != nil {
			t.do("service.run_day", 0, int64(d), func(int64) { rep, err = svc.RunDay(context.Background()) })
		} else {
			rep, err = svc.RunDay(context.Background())
		}
		wall := time.Since(start)
		if err != nil {
			svc.Close()
			return nil, nil, fmt.Errorf("day %d: %w", d, err)
		}
		vetoes := e.checkDay(r, svc, rep)
		out = append(out, dayResult{report: rep, wall: wall, full: d == 0, vetoes: vetoes})
	}
	return out, svc, nil
}

// checkDay counts every tenant-day and every serving probe and returns
// the tenant-days the guard vetoed: a tenant degraded for another reason
// fails, and so does a tenant that does not answer from the day's
// snapshot, or, vetoed, from its previous generation.
func (e *batchEnv) checkDay(r *run, svc *sigmund.Service, rep sigmund.DayReport) (vetoes int) {
	version := svc.SnapshotVersion()
	statuses := svc.TenantStatuses()
	for _, rr := range rep.Retailers {
		vetoed, err := checkRetailerDay(rep.Day, rr)
		r.check(err)
		if vetoed {
			vetoes++
		}
	}
	for _, ft := range e.fleet {
		id := ft.Spec.ID
		st, ok := statuses[id]
		r.check(checkTenantServes(id, st, ok, probe(svc, id), version))
	}
	return vetoes
}

// probe asks a tenant for recommendations for a one-view context.
func probe(svc *sigmund.Service, id sigmund.RetailerID) []sigmund.Recommendation {
	return svc.Recommend(id, sigmund.Context{{Type: sigmund.View, Item: 0}}, servK)
}

// checkMAP compares a day's fleet MAP@10 with the value pinned for the
// seed, or, for a seed with no pinned value, with the first week's value:
// with one Hogwild thread per model it must repeat exactly.
func checkMAP(seed uint64, day int, got, first float64) error {
	if want, ok := pinnedMAP[seed]; ok && day < len(want) {
		if fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", want[day]) {
			return fmt.Errorf("day %d fleet MAP@10 %.6f, pinned %.6f for seed %d", day, got, want[day], seed)
		}
		return nil
	}
	if got != first {
		return fmt.Errorf("day %d fleet MAP@10 %.9f, first week read %.9f", day, got, first)
	}
	return nil
}

// pinnedMAP holds the daily-batch fleet MAP@10 per day for seeds 1-10,
// as this fleet shape and configuration produce it. A change to either, or
// to what the pipeline computes, must re-pin them.
var pinnedMAP = map[uint64][]float64{
	1:  {0.183588, 0.199766, 0.204131},
	2:  {0.214300, 0.207713, 0.221587},
	3:  {0.185966, 0.204369, 0.207336},
	4:  {0.198092, 0.192044, 0.212467},
	5:  {0.199583, 0.208928, 0.204538},
	6:  {0.203513, 0.212245, 0.218995},
	7:  {0.185919, 0.196433, 0.201441},
	8:  {0.202734, 0.222244, 0.211115},
	9:  {0.204382, 0.206260, 0.214056},
	10: {0.205956, 0.206686, 0.212779},
}

func runBatch(r *run) error {
	env, err := newBatchEnv(r.seed)
	if err != nil {
		return err
	}
	b, setupS, err := timedSetups(env.newService, func(b batchService) { b.svc.Close() })
	if err != nil {
		return err
	}
	b.svc.Close()
	r.e2e("setup_s", setupS, "setup_s", "median set-up: service with the fleet registered; "+setupNote)
	var (
		full, incr samples
		firstMAP   []float64
		weeks      int
		tenantDays int
		vetoes     int
	)
	mw := startMemWatch()
	cpu0, start := cpuSeconds(), time.Now()
	for weeks == 0 || time.Since(start)+time.Since(start)/time.Duration(weeks) <= r.seconds {
		days, svc, err := env.week(r, nil)
		if err != nil {
			return err
		}
		svc.Close()
		for d, day := range days {
			if day.full {
				full.addDur(day.wall)
			} else {
				incr.addDur(day.wall)
			}
			tenantDays += len(day.report.Retailers)
			vetoes += day.vetoes
			m := day.report.BestMAP()
			if weeks == 0 {
				firstMAP = append(firstMAP, m)
			}
			r.check(checkMAP(r.seed, d, m, firstMAP[d]))
		}
		weeks++
	}
	cpu, wall := cpuSeconds()-cpu0, time.Since(start)
	mem := mw.finish()
	r.e2e("latency_p50_ms", incr.q(0.5), "day_incr_ms", fmt.Sprintf("median incremental-day wall = every tenant's time to servable, n=%d", incr.n()))
	r.e2e("latency_tail_ms", full.q(0.5), "day_full_ms", fmt.Sprintf("median full-sweep-day wall, n=%d", full.n()))
	r.e2e("work_per_cpu_s", float64(tenantDays)/cpu, "tenant_days_per_cpu_s", fmt.Sprintf("%d tenant-days, %.2f cores busy", tenantDays, cpu/wall.Seconds()))
	r.reportMem(mem, float64(weeks), fmt.Sprintf("week (1 full + %d incremental days)", batchIncrDays))
	r.say("day_full_s", full.q(0.5)/1e3, "s", "")
	r.say("day_incr_s", incr.q(0.5)/1e3, "s", "")
	for d, m := range firstMAP {
		r.say(fmt.Sprintf("fleet_map10_day%d", d), m, "MAP", fmt.Sprintf("%.6f", m))
	}
	r.say("guard_vetoes", float64(vetoes), "count", "tenant-days the guard vetoed; each kept serving its previous generation")
	r.reportFails("tenant-days, serving probes and MAP checks")
	return nil
}
