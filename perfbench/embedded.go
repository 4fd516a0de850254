package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sigmund"
	"sigmund/internal/serving"
)

// servingEnv is the recommend workloads' system under test: a service on a
// 4-shard x 2-replica store holding the generated fleet.
type servingEnv struct {
	tr  *traffic
	svc *sigmund.Service
	// gen is the newest generation handed to the store. Shards commit a
	// publish one by one before the store's own version moves, so while a
	// publish is in flight a tenant may already serve gen while
	// SnapshotVersion still says gen-1: the allowed window for an answer
	// is gen-1..gen as the benchmark, not the store, counts them.
	gen atomic.Int64
}

// newServingEnv starts a service on the traffic's fleet: the store and
// its first publish.
func newServingEnv(tr *traffic) (*servingEnv, error) {
	cfg := sigmund.DefaultConfig()
	cfg.Shards, cfg.Replicas = 4, 2
	e := &servingEnv{tr: tr, svc: sigmund.NewService(cfg)}
	if _, err := e.publish(); err != nil {
		e.svc.Close()
		return nil, err
	}
	return e, nil
}

func (e *servingEnv) close() { e.svc.Close() }

// publish pushes the next generation of the fleet through the store and
// returns its wall.
func (e *servingEnv) publish() (time.Duration, error) {
	gen := e.gen.Add(1)
	start := time.Now()
	if err := e.svc.Store().PublishGeneration(e.tr.snapshot(gen)); err != nil {
		return 0, fmt.Errorf("publishing generation %d: %w", gen, err)
	}
	return time.Since(start), nil
}

// callers is the number of closed-loop callers and open-loop connections:
// one per core of the 2-core host the benchmark is sized for.
const callers = 2

// publishEvery is the embedded workload's write cadence: one full-fleet
// publish per publishEvery calls, about one a second today. Tying it to
// calls rather than the clock keeps the read/write mix, and so the
// allocation per call, the same on a faster or slower machine.
const publishEvery = 150000

// loopResult is what one closed-loop pass measured.
type loopResult struct {
	lat     *hist
	calls   int64
	elapsed time.Duration
	publish samples
	// pubFails counts failed publishes; their errors are in failures.
	pubFails int
	failures []error
	// For a serve call that names its generation: answers from the newest
	// published generation and from the one before, and sampled answers
	// whose content is not the generation they were labelled with.
	genN, genN1, mislabeled int64
}

// serveFunc is one read call under test. gen is the generation the call
// says answered, 0 when the call does not say.
type serveFunc func(req *request) (recs []serving.Recommendation, gen int64)

// recommend is the embedded workload's call: Service.Recommend, which
// names no generation.
func (e *servingEnv) recommend(req *request) ([]serving.Recommendation, int64) {
	return e.svc.Recommend(req.tenant, req.ctx, servK), 0
}

// closedLoop runs callers goroutines calling serve back to back over the
// request stream for dur while, with publishing on, a writer publishes a
// full-fleet generation every publishEvery calls. Every answer is checked;
// sampled ones against the references of the generations that were the
// newest or the one before while the call ran. With t non-nil one call
// in traceEvery is also recorded as a span named span.
func (e *servingEnv) closedLoop(dur time.Duration, publishing bool, serve serveFunc, t *tracer, span string) loopResult {
	var (
		mu    sync.Mutex
		res   = loopResult{lat: newHist()}
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		total atomic.Int64 // calls by all callers, counted in chunks of 1024
		due   = make(chan struct{}, 1)
	)
	start := time.Now()
	deadline := start.Add(dur)
	if publishing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-due:
				}
				d, err := e.publish()
				mu.Lock()
				if err != nil {
					res.pubFails++
					res.failures = append(res.failures, err)
				} else {
					res.publish.addDur(d)
				}
				mu.Unlock()
			}
		}()
	}
	var callersWG sync.WaitGroup
	for c := 0; c < callers; c++ {
		callersWG.Add(1)
		go func(c int) {
			defer callersWG.Done()
			local := loopResult{lat: newHist()}
			for i := c; ; i += callers {
				req := &e.tr.reqs[i%streamLen]
				lo := e.gen.Load() - 1
				var (
					t0   time.Time
					id   int64
					recs []serving.Recommendation
					gen  int64
				)
				traced := t != nil && (i/callers)%traceEvery == 0
				if traced {
					t0, id = t.begin()
				} else {
					t0 = time.Now()
				}
				recs, gen = serve(req)
				t1 := time.Now()
				if traced {
					t.end(id, 0, id, span, t0)
				}
				local.lat.add(t1.Sub(t0))
				local.calls++
				if local.calls%1024 == 0 {
					if n := total.Add(1024); publishing && n%publishEvery < 1024 {
						select {
						case due <- struct{}{}:
						default:
						}
					}
				}
				hi := e.gen.Load()
				if err := e.tr.checkAnswer(req, recs, lo, hi); err != nil {
					local.failures = append(local.failures, err)
				}
				if gen > 0 {
					if gen >= hi {
						local.genN++
					} else {
						local.genN1++
					}
					if req.ref >= 0 && e.tr.checkAnswer(req, recs, gen, gen) != nil {
						local.mislabeled++
					}
				}
				if t1.After(deadline) {
					break
				}
			}
			mu.Lock()
			res.lat.merge(local.lat)
			res.calls += local.calls
			res.failures = append(res.failures, local.failures...)
			res.genN += local.genN
			res.genN1 += local.genN1
			res.mislabeled += local.mislabeled
			mu.Unlock()
		}(c)
	}
	callersWG.Wait()
	res.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	return res
}

// account adds a pass's calls and publishes to the run's attempted and
// failed counts.
func (r *run) account(lr loopResult) {
	r.attempted.Add(lr.calls + int64(lr.publish.n()+lr.pubFails))
	for _, err := range lr.failures {
		r.fail(err)
	}
}

// runEmbedded: closed loop from 2 in-process callers of Service.Recommend,
// with a full-fleet generation published every publishEvery calls beside
// the reads.
func runEmbedded(r *run) error {
	tr := genTraffic(r.seed)
	env, setupS, err := timedSetups(func() (*servingEnv, error) { return newServingEnv(tr) }, (*servingEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.e2e("setup_s", setupS, "setup_s", "median set-up: service, store, first publish; "+setupNote)
	env.closedLoop(500*time.Millisecond, false, env.recommend, nil, "") // warm the caches and pools
	mw := startMemWatch()
	cpu0 := cpuSeconds()
	lr := env.closedLoop(r.seconds, true, env.recommend, nil, "")
	cpu := cpuSeconds() - cpu0
	mem := mw.finish()
	r.account(lr)
	pct := tailPercentile(int(lr.calls), 0.99)
	r.e2e("latency_p50_ms", lr.lat.q(0.5), "recommend_p50_ms", fmt.Sprintf("per call, n=%d", lr.calls))
	r.e2e("latency_tail_ms", lr.lat.q(pct), "recommend_p99_ms", fmt.Sprintf("p%g per call, n=%d", pct*100, lr.calls))
	r.e2e("work_per_cpu_s", float64(lr.calls)/cpu, "embedded_calls_per_cpu_s", fmt.Sprintf("%.2f cores busy, publishes included", cpu/lr.elapsed.Seconds()))
	r.say("embedded_qps", float64(lr.calls)/lr.elapsed.Seconds(), "1/s", fmt.Sprintf("%d callers, closed loop, wall clock", callers))
	r.reportMem(mem, float64(lr.calls)/1e4, "10k calls (publishes included)")
	r.say("publish_ms", lr.publish.q(0.5), "ms", fmt.Sprintf("median wall of one full-fleet publish beside reads, n=%d", lr.publish.n()))
	r.reportFails("calls and publishes")
	return nil
}
