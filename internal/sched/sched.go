package sched

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/guard"
	"sigmund/internal/obs"
	"sigmund/internal/pipeline"
	"sigmund/internal/retry"
	"sigmund/internal/sched/estimate"
	"sigmund/internal/serving"
)

// Options configures the scheduler. The zero value is usable: Defaulted
// fills a 4-slot worker pool, daily default tier, 1h/24h/24h tier
// periods, and a 6-virtual-hour starvation bound.
type Options struct {
	// Workers is the size of the virtual worker pool: how many jobs can
	// occupy overlapping virtual time. (Job bodies still execute serially
	// in the dispatch loop; the pool bounds modeled concurrency, not OS
	// threads.)
	Workers int

	// Tiers maps tenants to freshness tiers; absent tenants get
	// DefaultTier (daily if unset).
	Tiers       map[catalog.RetailerID]Tier
	DefaultTier Tier

	// HourlyEvery / DailyEvery / BestEffortEvery are the tier cycle
	// periods in virtual time.
	HourlyEvery     time.Duration
	DailyEvery      time.Duration
	BestEffortEvery time.Duration

	// MaxCycles stops admission after each tenant has run this many
	// cycles; Horizon stops admitting cycles due at or past it. At least
	// one must bound the run — with both zero, Defaulted sets MaxCycles=1.
	MaxCycles int
	Horizon   time.Duration

	// MaxQueueAge is the starvation bound: a job that has waited longer
	// (virtually) than this jumps ahead of all slack ordering, oldest
	// first — so a best-effort tenant is delayed at most MaxQueueAge plus
	// one queue drain, never indefinitely.
	MaxQueueAge time.Duration

	// TimeScale converts measured real walls into virtual durations fed
	// to the runtime estimator (virtual = wall * TimeScale). The default
	// 600 makes a 100ms real job ≈ one virtual minute.
	TimeScale float64

	// VirtualCost overrides job cost prediction (tests inject fixed costs
	// for deterministic schedules). nil uses the EWMA estimator.
	VirtualCost func(*Job) time.Duration
	// Estimator is the runtime estimator to use (one is created if nil).
	// Sharing one across restarts preserves learned runtimes in-process;
	// across processes it re-learns from the queue log's journaled walls.
	Estimator *estimate.Estimator

	// Executor overrides the pipeline-backed executor (tests).
	Executor Executor
	// FS overrides the queue-log filesystem (defaults to the pipeline's).
	FS *dfs.FS
	// Tenants overrides the tenant set (defaults to the pipeline's
	// registered retailers, in deterministic order).
	Tenants []catalog.RetailerID
	// Obs overrides the observability surface (defaults to the
	// pipeline's).
	Obs *obs.Observer

	// Injector drives coordinator crashpoints on the queue log
	// ("sched/record-<n>/"); Retry and Seed govern queue-append retries.
	Injector *faults.Injector
	Retry    retry.Policy
	Seed     uint64
	// QueuePath is the queue log's location on the shared filesystem.
	QueuePath string
}

// Defaulted fills zero fields with defaults.
func (o Options) Defaulted() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.DefaultTier == "" {
		o.DefaultTier = TierDaily
	}
	if o.HourlyEvery <= 0 {
		o.HourlyEvery = time.Hour
	}
	if o.DailyEvery <= 0 {
		o.DailyEvery = 24 * time.Hour
	}
	if o.BestEffortEvery <= 0 {
		o.BestEffortEvery = 24 * time.Hour
	}
	if o.MaxCycles <= 0 && o.Horizon <= 0 {
		o.MaxCycles = 1
	}
	if o.MaxQueueAge <= 0 {
		o.MaxQueueAge = 6 * time.Hour
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 600
	}
	if o.QueuePath == "" {
		o.QueuePath = QueuePath
	}
	return o
}

// TierReport summarizes one tier's outcomes over a run.
type TierReport struct {
	// Tenants assigned to this tier.
	Tenants int
	// Cycles closed (published, vetoed, or failed) and Publishes pushed.
	Cycles    int
	Publishes int
	// Staleness has one sample per publish: how far past the cycle's due
	// time the fresh data became servable (virtual time).
	Staleness []time.Duration
	// MaxDispatchWait is the longest any job in this tier sat ready
	// before dispatch (virtual time) — the starvation bound's witness.
	MaxDispatchWait time.Duration
}

// StalenessP99 returns the tier's 99th-percentile publish staleness (0
// with no samples).
func (tr *TierReport) StalenessP99() time.Duration {
	return percentile(tr.Staleness, 0.99)
}

// StalenessMax returns the tier's worst publish staleness.
func (tr *TierReport) StalenessMax() time.Duration {
	var m time.Duration
	for _, d := range tr.Staleness {
		if d > m {
			m = d
		}
	}
	return m
}

// StalenessMean returns the tier's mean publish staleness.
func (tr *TierReport) StalenessMean() time.Duration {
	if len(tr.Staleness) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range tr.Staleness {
		sum += d
	}
	return sum / time.Duration(len(tr.Staleness))
}

func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Report is what one scheduler run did.
type Report struct {
	// VirtualElapsed is the virtual clock at the end of the run.
	VirtualElapsed time.Duration
	// JobsRun executed for real; JobsReplayed were short-circuited from
	// the queue log on resume; JobsFailed closed their cycle with an
	// error (both fresh and replayed failures).
	JobsRun      int
	JobsReplayed int
	JobsFailed   int
	// CyclesAdmitted / CyclesClosed count cycle lifecycles this run saw
	// (including replayed ones).
	CyclesAdmitted int
	CyclesClosed   int
	// Publishes pushed a fresh generation; Vetoed cycles no-opped their
	// publish; Canaried published behind a canary slice.
	Publishes int
	Vetoed    int
	Canaried  int
	// Resumed is true when the run continued a non-empty queue log;
	// RecordsReplayed is that log's record count.
	Resumed         bool
	RecordsReplayed int
	// MaxGen is the highest publish generation after the run.
	MaxGen int64
	// Cycles counts closed cycles per tenant.
	Cycles map[catalog.RetailerID]int
	// Tiers breaks outcomes down per freshness tier.
	Tiers map[Tier]*TierReport
}

// Freshness condenses the report into the /statz "freshness" block.
func (r *Report) Freshness() serving.FreshnessInfo {
	info := serving.FreshnessInfo{
		Path:         "sched",
		VirtualHours: r.VirtualElapsed.Hours(),
		Tiers:        map[string]serving.TierFreshness{},
	}
	for tier, tr := range r.Tiers {
		info.Tiers[string(tier)] = serving.TierFreshness{
			Tenants:                tr.Tenants,
			Publishes:              tr.Publishes,
			MeanStalenessSeconds:   tr.StalenessMean().Seconds(),
			P99StalenessSeconds:    tr.StalenessP99().Seconds(),
			MaxStalenessSeconds:    tr.StalenessMax().Seconds(),
			MaxDispatchWaitSeconds: tr.MaxDispatchWait.Seconds(),
		}
	}
	return info
}

// freshnessSink is the optional publisher capability for the /statz
// "freshness" block (both serving.Server and store.Store implement it).
type freshnessSink interface {
	SetFreshnessInfo(serving.FreshnessInfo)
}

// Scheduler is the continuous fleet scheduler. Construct with New; Run it
// to completion, or Start/Close it as a supervised background component.
type Scheduler struct {
	pipe *pipeline.Pipeline
	opts Options
	est  *estimate.Estimator
	exec Executor
	// pick replaces selectJob when set (tests run a reference selection
	// through the same loop).
	pick func(pending []*Job, t time.Duration, probe *Job) int

	mu      sync.Mutex
	running bool
	cancel  context.CancelFunc
	done    chan struct{}
	report  Report
	err     error
}

// New builds a scheduler over the pipeline's per-tenant stage API. pipe
// may be nil only when opts supplies Executor, FS, and Tenants (tests).
func New(pipe *pipeline.Pipeline, opts Options) *Scheduler {
	opts = opts.Defaulted()
	if opts.Obs == nil && pipe != nil {
		opts.Obs = pipe.Observer()
	}
	est := opts.Estimator
	if est == nil {
		est = estimate.New(estimate.Options{})
	}
	s := &Scheduler{pipe: pipe, opts: opts, est: est}
	if opts.Executor != nil {
		s.exec = opts.Executor
	} else {
		s.exec = newPipelineExecutor(pipe)
	}
	return s
}

// Estimator returns the scheduler's runtime estimator (for seeding from a
// legacy DayReport before the first continuous run).
func (s *Scheduler) Estimator() *estimate.Estimator { return s.est }

// tierOf returns a tenant's tier.
func (s *Scheduler) tierOf(r catalog.RetailerID) Tier {
	if t, ok := s.opts.Tiers[r]; ok && ValidTier(string(t)) {
		return t
	}
	return s.opts.DefaultTier
}

// period returns a tier's cycle period.
func (s *Scheduler) period(t Tier) time.Duration {
	switch t {
	case TierHourly:
		return s.opts.HourlyEvery
	case TierBestEffort:
		return s.opts.BestEffortEvery
	default:
		return s.opts.DailyEvery
	}
}

// costOf predicts a job's virtual duration.
func (s *Scheduler) costOf(j *Job) time.Duration {
	if s.opts.VirtualCost != nil {
		return s.opts.VirtualCost(j)
	}
	d, _ := s.est.Predict(j.Tenant, string(j.Kind))
	return d
}

// dispatchKey is a ready job's priority at one dispatch instant, computed
// once per job per dispatch. Two levels: jobs starving past MaxQueueAge
// form a FIFO class ahead of everything (the aging bound); everyone else
// ranks by deadline slack — virtual time to the cycle's deadline (due +
// one period) minus predicted remaining work through publish — then tier
// urgency. Final tie-breaks are total and deterministic.
type dispatchKey struct {
	starved bool
	// slack is set only for non-starved jobs.
	slack time.Duration
}

// keyOf computes j's dispatch key at virtual time t. probe is scratch
// storage for the per-kind cost queries, so computing a key allocates
// nothing.
func (s *Scheduler) keyOf(j *Job, t time.Duration, probe *Job) dispatchKey {
	if t-j.Ready > s.opts.MaxQueueAge {
		return dispatchKey{starved: true}
	}
	var remaining time.Duration
	for i := kindIndex(j.Kind); i < len(kindChain); i++ {
		if s.opts.VirtualCost != nil {
			*probe = Job{Tenant: j.Tenant, Cycle: j.Cycle, Kind: kindChain[i], Tier: j.Tier}
			remaining += s.opts.VirtualCost(probe)
		} else {
			d, _ := s.est.Predict(j.Tenant, string(kindChain[i]))
			remaining += d
		}
	}
	return dispatchKey{slack: j.Due + s.period(j.Tier) - t - remaining}
}

// keyLess orders two ready jobs by their dispatch keys.
func keyLess(a *Job, ka dispatchKey, b *Job, kb dispatchKey) bool {
	if ka.starved != kb.starved {
		return ka.starved
	}
	if ka.starved {
		if a.Ready != b.Ready {
			return a.Ready < b.Ready
		}
	} else {
		if ka.slack != kb.slack {
			return ka.slack < kb.slack
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

// selectJob returns the index in pending of the ready job (Ready <= t)
// to dispatch at t; at least one pending job must be ready.
func (s *Scheduler) selectJob(pending []*Job, t time.Duration, probe *Job) int {
	best := -1
	var bestKey dispatchKey
	for i, j := range pending {
		if j.Ready > t {
			continue
		}
		k := s.keyOf(j, t, probe)
		if best < 0 || keyLess(j, k, pending[best], bestKey) {
			best, bestKey = i, k
		}
	}
	return best
}

// Run drives the scheduler to completion: open (or resume) the queue log,
// then loop the discrete-event dispatch until every admissible cycle has
// closed. Crash-safe: on any CrashError the log retains everything
// committed, and calling Run again replays it.
func (s *Scheduler) Run(ctx context.Context) (Report, error) {
	return s.run(ctx)
}

// Start runs the scheduler on a background goroutine (the supervised
// service path). Close cancels and joins it.
func (s *Scheduler) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	s.cancel, s.done, s.running = cancel, done, true
	go func() {
		rep, err := s.run(ctx)
		s.mu.Lock()
		s.report, s.err = rep, err
		s.running = false
		s.mu.Unlock()
		close(done)
	}()
}

// Close stops a Started scheduler and joins its goroutine, returning the
// (possibly partial) report. Context cancellation is a clean stop, not an
// error. Close on a never-Started scheduler is a no-op.
func (s *Scheduler) Close() (Report, error) {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.mu.Unlock()
	if cancel == nil {
		return Report{}, nil
	}
	cancel()
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.report, s.err
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return rep, err
}

// tenantState is the live (non-durable) scheduling state of one tenant;
// resume rebuilds it by re-walking the log.
type tenantState struct {
	id        catalog.RetailerID
	tier      Tier
	period    time.Duration
	nextCycle int
	open      bool
}

func (ts *tenantState) due(cycle int) time.Duration {
	return time.Duration(cycle) * ts.period
}

func (s *Scheduler) run(ctx context.Context) (Report, error) {
	fs := s.opts.FS
	if fs == nil && s.pipe != nil {
		fs = s.pipe.FS()
	}
	q, err := openQueueLog(fs, s.opts.QueuePath)
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		Resumed:         q.resumed,
		RecordsReplayed: q.records,
		Cycles:          map[catalog.RetailerID]int{},
		Tiers:           map[Tier]*TierReport{},
	}
	tierRep := func(t Tier) *TierReport {
		tr := rep.Tiers[t]
		if tr == nil {
			tr = &TierReport{}
			rep.Tiers[t] = tr
		}
		return tr
	}

	tenants := s.opts.Tenants
	if tenants == nil && s.pipe != nil {
		tenants = s.pipe.Retailers()
	}
	states := make([]*tenantState, 0, len(tenants))
	for _, r := range tenants {
		tier := s.tierOf(r)
		states = append(states, &tenantState{id: r, tier: tier, period: s.period(tier)})
		tierRep(tier).Tenants++
	}

	var reg *obs.Registry
	if s.opts.Obs != nil {
		reg = s.opts.Obs.Reg()
	}
	var root *obs.Span
	if s.opts.Obs != nil {
		root = s.opts.Obs.Trace().Start("sched",
			obs.L("workers", strconv.Itoa(s.opts.Workers)),
			obs.L("tenants", strconv.Itoa(len(states))))
		defer root.End()
	}
	depthGauge := reg.Gauge("sigmund_sched_queue_depth", "Jobs waiting in the scheduler queue.")
	jobCounter := func(kind JobKind, outcome string) {
		reg.Counter("sigmund_sched_jobs_total", "Scheduler jobs by kind and outcome.",
			obs.L("kind", string(kind)), obs.L("outcome", outcome)).Inc()
	}

	freeAt := make([]time.Duration, s.opts.Workers)
	var pending []*Job
	var probe Job
	pick := s.selectJob
	if s.pick != nil {
		pick = s.pick
	}
	var simNow time.Duration

	canAdmit := func(ts *tenantState) bool {
		if s.opts.MaxCycles > 0 && ts.nextCycle >= s.opts.MaxCycles {
			return false
		}
		if s.opts.Horizon > 0 && ts.due(ts.nextCycle) >= s.opts.Horizon {
			return false
		}
		return true
	}
	nextDue := func() (time.Duration, bool) {
		var best time.Duration
		found := false
		for _, ts := range states {
			if ts.open || !canAdmit(ts) {
				continue
			}
			if d := ts.due(ts.nextCycle); !found || d < best {
				best, found = d, true
			}
		}
		return best, found
	}
	admit := func(now time.Duration) error {
		for _, ts := range states {
			if ts.open || !canAdmit(ts) {
				continue
			}
			due := ts.due(ts.nextCycle)
			if due > now {
				continue
			}
			cyc := ts.nextCycle
			if !q.hasCycle(ts.id, cyc) {
				rec := &queueRecord{Type: recCycle, Tenant: ts.id, Cycle: cyc, VT: int64(now)}
				if err := q.append(ctx, rec, s.opts.Retry, s.opts.Seed, s.opts.Injector); err != nil {
					return err
				}
			}
			ts.nextCycle = cyc + 1
			ts.open = true
			rep.CyclesAdmitted++
			pending = append(pending, &Job{
				Tenant: ts.id, Cycle: cyc, Kind: KindStage, Tier: ts.tier,
				Due: due, Ready: due,
			})
		}
		return nil
	}
	stateOf := map[catalog.RetailerID]*tenantState{}
	for _, ts := range states {
		stateOf[ts.id] = ts
	}

	finish := func() {
		rep.VirtualElapsed = simNow
		rep.MaxGen = q.maxGen
		if s.pipe != nil {
			if sink, ok := s.pipe.PublisherHandle().(freshnessSink); ok {
				sink.SetFreshnessInfo(rep.Freshness())
			}
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			finish()
			return rep, err
		}
		if err := admit(simNow); err != nil {
			finish()
			return rep, err
		}
		depthGauge.Set(float64(len(pending)))
		if len(pending) == 0 {
			nd, ok := nextDue()
			if !ok {
				break // every admissible cycle has closed
			}
			if nd > simNow {
				simNow = nd
			}
			continue
		}
		// Dispatch on the worker that frees first.
		w := 0
		for i := 1; i < len(freeAt); i++ {
			if freeAt[i] < freeAt[w] {
				w = i
			}
		}
		t := simNow
		if freeAt[w] > t {
			t = freeAt[w]
		}
		// An admission coming due before the dispatch instant joins the
		// queue first (it competes in the priority selection at t).
		if nd, ok := nextDue(); ok && nd <= t {
			simNow = nd
			continue
		}
		// If nothing is ready at t, advance the clock to the next event.
		minReady := pending[0].Ready
		for _, j := range pending[1:] {
			if j.Ready < minReady {
				minReady = j.Ready
			}
		}
		if minReady > t {
			next := minReady
			if nd, ok := nextDue(); ok && nd < next {
				next = nd
			}
			simNow = next
			continue
		}
		simNow = t

		// Priority selection among ready jobs.
		best := pick(pending, t, &probe)
		job := pending[best]
		pending = append(pending[:best], pending[best+1:]...)

		wait := t - job.Ready
		if tr := tierRep(job.Tier); wait > tr.MaxDispatchWait {
			tr.MaxDispatchWait = wait
		}
		reg.Histogram("sigmund_sched_dispatch_wait_seconds",
			"Virtual time jobs sat ready before dispatch.",
			obs.StalenessBuckets(), obs.L("tier", string(job.Tier))).Observe(wait.Seconds())

		// Execute — or short-circuit from the log on resume.
		drec := q.done(jobKey{job.Tenant, job.Cycle, job.Kind})
		replayed := drec != nil
		var res JobResult
		var jobErr error
		if replayed {
			res = resultFromRecord(drec)
			if drec.Failed {
				jobErr = errors.New(drec.Err)
			}
			if job.Kind == KindPublish {
				job.Gen = drec.Gen
			}
		} else {
			if job.Kind == KindPublish && guard.Verdict(job.Verdict) != guard.VerdictVeto {
				job.Gen = q.maxGen + 1
			}
			res, jobErr = s.exec.Execute(ctx, job)
			if jobErr != nil && ctx.Err() != nil {
				finish()
				return rep, jobErr
			}
		}
		// The job's virtual span: predicted cost from dispatch. Predict
		// before observing this job's wall so replay and live runs see
		// identical estimator state at this point.
		vcost := s.costOf(job)
		c := t + vcost
		freeAt[w] = c
		if !replayed {
			if err := q.append(ctx, doneRecord(job, res, jobErr, c), s.opts.Retry, s.opts.Seed, s.opts.Injector); err != nil {
				finish()
				return rep, err
			}
			s.exec.Committed(job, res)
			rep.JobsRun++
		} else {
			rep.JobsReplayed++
		}
		if res.Wall > 0 {
			s.est.Observe(job.Tenant, string(job.Kind), time.Duration(float64(res.Wall)*s.opts.TimeScale))
		}
		if root != nil {
			jspan := root.Child("job:"+string(job.Kind),
				obs.L("tenant", string(job.Tenant)),
				obs.L("cycle", strconv.Itoa(job.Cycle)),
				obs.L("tier", string(job.Tier)))
			if replayed {
				jspan.SetAttr("replayed", "true")
			}
			if jobErr != nil {
				jspan.SetAttr("error", jobErr.Error())
			}
			jspan.EndWith(vcost)
		}

		ts := stateOf[job.Tenant]
		if jobErr != nil {
			// A failed job closes its cycle: the tenant keeps serving its
			// previous generation and retries on its next admission.
			rep.JobsFailed++
			rep.CyclesClosed++
			rep.Cycles[ts.id]++
			tierRep(job.Tier).Cycles++
			ts.open = false
			jobCounter(job.Kind, outcomeLabel(replayed, "failed"))
			continue
		}
		jobCounter(job.Kind, outcomeLabel(replayed, "ok"))

		if job.Kind == KindPublish {
			ts.open = false
			rep.CyclesClosed++
			rep.Cycles[ts.id]++
			tr := tierRep(job.Tier)
			tr.Cycles++
			switch guard.Verdict(job.Verdict) {
			case guard.VerdictVeto:
				rep.Vetoed++
			default:
				if guard.Verdict(job.Verdict) == guard.VerdictCanary {
					rep.Canaried++
				}
				rep.Publishes++
				tr.Publishes++
				stale := c - job.Due
				tr.Staleness = append(tr.Staleness, stale)
				reg.Histogram("sigmund_pipeline_staleness_seconds",
					"How far past its due time a tenant's fresh data became servable.",
					obs.StalenessBuckets(),
					obs.L("path", "sched"), obs.L("tier", string(job.Tier))).Observe(stale.Seconds())
			}
			continue
		}

		nk, _ := nextKind(job.Kind)
		succ := &Job{
			Tenant: job.Tenant, Cycle: job.Cycle, Kind: nk, Tier: job.Tier,
			Due: job.Due, Ready: c,
			// Carry the cycle's accumulated payload forward.
			FullSweep: job.FullSweep, Configs: job.Configs,
			Best: job.Best, BestMAP: job.BestMAP,
			ItemsServed: job.ItemsServed,
			Verdict:     job.Verdict, Reason: job.Reason, CanaryFraction: job.CanaryFraction,
			Infer: job.Infer,
		}
		switch job.Kind {
		case KindStage:
			succ.FullSweep, succ.Configs = res.FullSweep, res.Configs
		case KindTrain:
			succ.Best, succ.BestMAP = res.Best, res.BestMAP
		case KindInfer:
			succ.Infer, succ.ItemsServed = res.Infer, res.ItemsServed
		case KindGuard:
			succ.Verdict, succ.Reason, succ.CanaryFraction = res.Verdict, res.Reason, res.CanaryFraction
			if res.Infer != nil {
				succ.Infer = res.Infer
			}
		}
		pending = append(pending, succ)
	}

	depthGauge.Set(0)
	finish()
	return rep, nil
}

func outcomeLabel(replayed bool, outcome string) string {
	if replayed {
		return outcome + "-replayed"
	}
	return outcome
}

// doneRecord builds the durable completion record for a job, carrying
// exactly the payload its successor needs on resume.
func doneRecord(job *Job, res JobResult, jobErr error, completion time.Duration) *queueRecord {
	rec := &queueRecord{
		Type: recDone, Tenant: job.Tenant, Cycle: job.Cycle,
		Kind: string(job.Kind), VT: int64(completion), WallNS: int64(res.Wall),
	}
	if jobErr != nil {
		rec.Failed = true
		rec.Err = jobErr.Error()
		return rec
	}
	switch job.Kind {
	case KindStage:
		rec.FullSweep, rec.Configs = res.FullSweep, res.Configs
	case KindTrain:
		b := res.Best
		rec.Best, rec.BestMAP, rec.ConfigsOK = &b, res.BestMAP, res.ConfigsOK
	case KindInfer:
		rec.ItemsServed = res.ItemsServed
	case KindGuard:
		rec.Verdict, rec.Reason, rec.CanaryFraction = res.Verdict, res.Reason, res.CanaryFraction
	case KindPublish:
		rec.Gen, rec.Verdict = job.Gen, job.Verdict
	}
	return rec
}
