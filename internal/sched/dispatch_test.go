package sched

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
)

// oracleRemaining and oracleJobLess are the dispatch comparison before
// keys were precomputed: remaining builds a Job for every kind it prices,
// and jobLess re-derives both jobs' starvation and slack on every
// comparison. They survive only as the reference that selectJob must
// agree with.
func oracleRemaining(s *Scheduler, j *Job) time.Duration {
	var sum time.Duration
	for i := kindIndex(j.Kind); i < len(kindChain); i++ {
		sum += s.costOf(&Job{Tenant: j.Tenant, Cycle: j.Cycle, Kind: kindChain[i], Tier: j.Tier})
	}
	return sum
}

func oracleJobLess(s *Scheduler, a, b *Job, t time.Duration) bool {
	as := t-a.Ready > s.opts.MaxQueueAge
	bs := t-b.Ready > s.opts.MaxQueueAge
	if as != bs {
		return as
	}
	if as {
		if a.Ready != b.Ready {
			return a.Ready < b.Ready
		}
	} else {
		sa := a.Due + s.period(a.Tier) - t - oracleRemaining(s, a)
		sb := b.Due + s.period(b.Tier) - t - oracleRemaining(s, b)
		if sa != sb {
			return sa < sb
		}
		if ra, rb := a.Tier.rank(), b.Tier.rank(); ra != rb {
			return ra < rb
		}
	}
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	if a.Cycle != b.Cycle {
		return a.Cycle < b.Cycle
	}
	return kindIndex(a.Kind) < kindIndex(b.Kind)
}

// oracleSelect is the linear jobLess scan selectJob replaced.
func oracleSelect(s *Scheduler) func([]*Job, time.Duration, *Job) int {
	return func(pending []*Job, t time.Duration, _ *Job) int {
		best := -1
		for i, j := range pending {
			if j.Ready > t {
				continue
			}
			if best < 0 || oracleJobLess(s, j, pending[best], t) {
				best = i
			}
		}
		return best
	}
}

// wallExec is fakeExec with a deterministic, widely varying wall per job,
// so estimator-driven costs differ across tenants, kinds and cycles.
type wallExec struct {
	fakeExec
	seed uint64
}

func (w *wallExec) Execute(ctx context.Context, job *Job) (JobResult, error) {
	res, err := w.fakeExec.Execute(ctx, job)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%s", w.seed, job.Tenant, job.Cycle, job.Kind)
	res.Wall = time.Duration(1+h.Sum64()%40) * 250 * time.Microsecond
	return res, err
}

// dispatch is one selection: the job picked and the virtual instant.
type dispatch struct {
	Tenant catalog.RetailerID
	Cycle  int
	Kind   JobKind
	At     time.Duration
}

// dispatchRun drains one fleet with the given selection (nil = the
// scheduler's own) and returns the dispatch sequence, the report and the
// queue log's bytes.
func dispatchRun(t *testing.T, opts Options, wallSeed uint64, fail map[jobKey]bool, oracle bool) ([]dispatch, Report, []byte, dispatchCoverage) {
	t.Helper()
	fs := dfs.New()
	opts.FS = fs
	opts.Executor = &wallExec{fakeExec: fakeExec{fail: fail}, seed: wallSeed}
	s := New(nil, opts)
	pick := s.selectJob
	if oracle {
		pick = oracleSelect(s)
	}
	var seq []dispatch
	var cov dispatchCoverage
	s.pick = func(pending []*Job, at time.Duration, probe *Job) int {
		i := pick(pending, at, probe)
		j := pending[i]
		seq = append(seq, dispatch{j.Tenant, j.Cycle, j.Kind, at})
		if at-j.Ready > s.opts.MaxQueueAge {
			cov.starved++
		}
		for _, p := range pending {
			if p.Ready <= at && s.est.Len() > 0 && !s.est.Known(p.Tenant, string(p.Kind)) {
				cov.coldRanked++
				break
			}
		}
		return i
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	log, err := fs.Read(s.opts.QueuePath)
	if err != nil {
		t.Fatal(err)
	}
	return seq, rep, log, cov
}

// dispatchCoverage counts the situations the differential test is meant
// to reach: dispatches of starved jobs, and dispatches that ranked a
// cold tenant by the fleet median.
type dispatchCoverage struct{ starved, coldRanked int }

// TestDispatchMatchesOracle is the differential test for the precomputed
// dispatch keys: over seeded fleets with mixed tiers, several worker
// counts, a starvation bound small enough to engage the aging class, a
// few failing jobs, and estimator-driven costs from varying walls (cold
// tenants priced at a fleet median that moves with every observation),
// the scheduler's selection must dispatch exactly the jobs, in exactly
// the order and at exactly the virtual instants, of the reference scan —
// with an identical report and a byte-identical queue log.
func TestDispatchMatchesOracle(t *testing.T) {
	var total dispatchCoverage
	for seed := uint64(1); seed <= 6; seed++ {
		for _, workers := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(seed)))
				n := 6 + rng.Intn(14)
				tenants := make([]catalog.RetailerID, n)
				tiers := map[catalog.RetailerID]Tier{}
				fail := map[jobKey]bool{}
				for i := range tenants {
					tenants[i] = catalog.RetailerID(fmt.Sprintf("r%02d", rng.Intn(100)*100+i))
					tiers[tenants[i]] = []Tier{TierHourly, TierDaily, TierBestEffort}[rng.Intn(3)]
					if rng.Intn(8) == 0 {
						fail[jobKey{tenants[i], rng.Intn(2), kindChain[rng.Intn(len(kindChain))]}] = true
					}
				}
				opts := Options{
					Workers:         workers,
					Tenants:         tenants,
					Tiers:           tiers,
					HourlyEvery:     time.Hour,
					DailyEvery:      4 * time.Hour,
					BestEffortEvery: 4 * time.Hour,
					Horizon:         8 * time.Hour,
					MaxQueueAge:     time.Duration(20+rng.Intn(40)) * time.Minute,
					TimeScale:       60000, // 250µs..10ms walls → 15s..10min virtual
				}
				wantSeq, wantRep, wantLog, cov := dispatchRun(t, opts, seed, fail, true)
				gotSeq, gotRep, gotLog, _ := dispatchRun(t, opts, seed, fail, false)
				if len(gotSeq) != len(wantSeq) {
					t.Fatalf("dispatched %d jobs, oracle %d", len(gotSeq), len(wantSeq))
				}
				for i := range wantSeq {
					if gotSeq[i] != wantSeq[i] {
						t.Fatalf("dispatch %d: %+v, oracle %+v", i, gotSeq[i], wantSeq[i])
					}
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("report differs from oracle:\n got %+v\nwant %+v", gotRep, wantRep)
				}
				if string(gotLog) != string(wantLog) {
					t.Fatal("queue log differs from oracle")
				}
				total.starved += cov.starved
				total.coldRanked += cov.coldRanked
			})
		}
	}
	t.Logf("coverage: %d starved dispatches, %d with a cold tenant ranked", total.starved, total.coldRanked)
	if total.starved == 0 || total.coldRanked == 0 {
		t.Fatalf("coverage: %d starved dispatches, %d with a cold tenant ranked; want both > 0", total.starved, total.coldRanked)
	}
}
