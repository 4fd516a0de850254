package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/cooccur"
	"sigmund/internal/core/inference"
	"sigmund/internal/core/modelselect"
	"sigmund/internal/dfs"
	"sigmund/internal/guard"
	"sigmund/internal/interactions"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
)

// The per-tenant stage API: each phase of one tenant's cycle — stage,
// train (with selection), infer, guard — callable on its own, with durable
// artifacts under the cycle's day prefix. RunDay drives the whole fleet
// through these cores in lockstep; the continuous scheduler
// (internal/sched) drives one tenant at a time through them as typed jobs
// on its durable queue. "cycle" takes the role of "day" in every
// shared-filesystem path, so a staggered fleet lays its artifacts out
// exactly like a synchronized one.

// StageResult is one tenant's staged cycle: its training data and holdout
// are durable in the shared filesystem and its sweep is planned.
type StageResult struct {
	// FullSweep reports whether the plan is a full grid sweep (new tenant,
	// periodic restart, or no usable history) rather than an incremental
	// re-train of the previous best configs.
	FullSweep bool
	// Configs are the planned config records, ready for TrainTenant.
	Configs []modelselect.ConfigRecord
}

// StageTenant stages one tenant's cycle: holdout split, durable staging
// writes, sweep plan. The plan is deterministic given the tenant's log and
// its sweep state (isNew / previous records).
func (p *Pipeline) StageTenant(ctx context.Context, cycle int, r catalog.RetailerID) (StageResult, error) {
	t := p.Tenant(r)
	if t == nil {
		return StageResult{}, fmt.Errorf("pipeline: unknown retailer %s", r)
	}
	full, recs, err := p.stageTenantCore(ctx, cycle, r, t)
	if err != nil {
		return StageResult{}, err
	}
	return StageResult{FullSweep: full, Configs: recs}, nil
}

// stageTenantCore is the staging body shared by RunDay's staging loop and
// StageTenant: write the split training data and holdout durably, then
// plan the sweep (full for new tenants, periodic restarts, and tenants
// with no usable history; incremental otherwise).
func (p *Pipeline) stageTenantCore(ctx context.Context, day int, r catalog.RetailerID, t *Tenant) (bool, []modelselect.ConfigRecord, error) {
	split := interactions.HoldoutSplit(t.Log, p.opts.BaseHyper.ContextLen)
	if err := p.writeWithRetry(ctx, trainDataPath(day, r), EncodeLog(split.Train)); err != nil {
		return false, nil, fmt.Errorf("staging training data for %s: %w", r, err)
	}
	if err := p.writeWithRetry(ctx, holdoutPath(day, r), EncodeHoldout(split.Holdout)); err != nil {
		return false, nil, fmt.Errorf("staging holdout for %s: %w", r, err)
	}

	p.mu.Lock()
	last := p.lastRecords[r]
	p.mu.Unlock()
	if len(last) == 0 && day > 0 {
		// A restarted process holds no in-memory sweep state. Recover the
		// most recent cycle's persisted tenant records so a tenant that
		// already swept keeps warm-starting incrementally — exactly the
		// state the dead process carried. (The daily path shards records
		// per cell, so this finds nothing there and behavior is unchanged.)
		if recs := p.loadLastTenantRecords(day, r); len(recs) > 0 {
			last = recs
			p.mu.Lock()
			p.lastRecords[r] = recs
			p.mu.Unlock()
		}
	}
	full := (p.opts.FullRestartEvery > 0 && day%p.opts.FullRestartEvery == 0) || len(last) == 0

	var recs []modelselect.ConfigRecord
	if full {
		grid := p.opts.Grid.PruneForRetailer(t.Catalog, p.opts.MinFeatureCoverage)
		recs = modelselect.PlanFull(r, grid, p.opts.BaseHyper, trainDataPath(day, r), p.opts.FullEpochs)
		for j := range recs {
			recs[j].ModelPath = modelPath(day, recs[j].ModelID)
		}
	} else {
		recs = modelselect.PlanIncremental(last, p.opts.TopKIncremental, p.opts.IncrementalEpochs)
		for j := range recs {
			recs[j].TrainDataPath = trainDataPath(day, r)
			recs[j].WarmStartPath = recs[j].ModelPath // previous cycle's model
			recs[j].ModelPath = modelPath(day, recs[j].ModelID)
		}
	}
	p.mu.Lock()
	t.isNew = false
	p.mu.Unlock()
	return full, recs, nil
}

// loadLastTenantRecords scans back from the cycle before `cycle` for the
// most recent persisted tenant record set with a selectable best — the
// durable equivalent of the in-memory sweep state (p.lastRecords) an
// uninterrupted process advances after each successful selection. Record
// sets whose sweep produced nothing selectable are skipped, matching the
// in-memory rule that a failed sweep leaves the state untouched.
func (p *Pipeline) loadLastTenantRecords(cycle int, r catalog.RetailerID) []modelselect.ConfigRecord {
	for day := cycle - 1; day >= 0; day-- {
		data, err := p.fs.Read(tenantRecordsPath(day, r))
		if err != nil {
			continue
		}
		recs, err := decodeRecordLines(data)
		if err != nil {
			continue
		}
		if _, ok := modelselect.Best(recs); ok {
			return recs
		}
	}
	return nil
}

// decodeRecordLines parses the newline-delimited config records
// trainRecordSet persists.
func decodeRecordLines(data []byte) ([]modelselect.ConfigRecord, error) {
	var recs []modelselect.ConfigRecord
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeConfigRecord(line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// TrainResult is one tenant's trained sweep plus its selection outcome.
type TrainResult struct {
	// Records are the output config records (trained and failed alike),
	// persisted durably at the tenant's records path.
	Records []modelselect.ConfigRecord
	// Best is the selected config (BestOK false when nothing trained —
	// the tenant's sweep state is then left untouched so the next cycle
	// can still warm-start from the previous one).
	Best   modelselect.ConfigRecord
	BestOK bool
	// ConfigsOK counts configs that trained cleanly; FirstErr is the
	// first training error observed (for degradation attribution).
	ConfigsOK int
	FirstErr  string
	Counters  mapreduce.Counters
	// Wall is the tenant's summed training compute across its configs.
	Wall time.Duration
}

// TrainTenant trains one tenant's planned configs on a private MapReduce
// (one map task per config, same substrate and checkpointing as the daily
// cell jobs), persists the output records durably, and runs model
// selection: the tenant's sweep state advances only when at least one
// config trained.
func (p *Pipeline) TrainTenant(ctx context.Context, cycle int, r catalog.RetailerID, configs []modelselect.ConfigRecord) (TrainResult, error) {
	if len(configs) == 0 {
		return TrainResult{}, fmt.Errorf("pipeline: no configs planned for %s", r)
	}
	cache := &coocCache{fs: p.fs, day: cycle, models: map[catalog.RetailerID]*cooccur.Model{}}
	wall := &tenantWall{d: map[catalog.RetailerID]time.Duration{}}
	out, counters, err := p.trainRecordSet(ctx, cycle, "tenant-"+string(r), tenantRecordsPath(cycle, r), configs, cache, wall)
	res := TrainResult{Counters: counters, Wall: wall.snapshot()[r]}
	if err != nil {
		return res, fmt.Errorf("training %s: %w", r, err)
	}
	res.Records = out
	for _, rec := range out {
		if rec.Trained && rec.Err == "" {
			res.ConfigsOK++
		} else if res.FirstErr == "" && rec.Err != "" {
			res.FirstErr = rec.Err
		}
	}
	if best, ok := modelselect.Best(out); ok {
		res.Best, res.BestOK = best, true
		p.mu.Lock()
		p.lastRecords[r] = out
		p.mu.Unlock()
	}
	return res, nil
}

// InferResult is one tenant's materialized recommendations, durable at the
// cycle's recs path before InferTenant returns.
type InferResult struct {
	Items    []inference.ItemRecs
	Sellers  []catalog.ItemID
	Counters mapreduce.Counters
}

// InferTenant materializes one tenant's recommendations from its selected
// model and persists the blob durably (write-then-commit: the scheduler
// journals the job's completion only after this returns, so a crashed
// scheduler either re-materializes or reloads the identical bytes).
func (p *Pipeline) InferTenant(ctx context.Context, cycle int, r catalog.RetailerID, best modelselect.ConfigRecord) (InferResult, error) {
	t := p.Tenant(r)
	if t == nil {
		return InferResult{}, fmt.Errorf("pipeline: unknown retailer %s", r)
	}
	items, sellers, counters, err := p.inferRetailerSafe(ctx, cycle, t, best)
	res := InferResult{Counters: counters}
	if err != nil {
		return res, fmt.Errorf("inference for %s: %w", r, err)
	}
	if err := p.writeWithRetry(ctx, recsPath(cycle, r), segment.Encode(items, sellers)); err != nil {
		return res, fmt.Errorf("persisting recs for %s: %w", r, err)
	}
	res.Items, res.Sellers = items, sellers
	return res, nil
}

// LoadTenantRecs reloads a tenant's committed materialization from the
// cycle's recs path — the scheduler's resume path for publish jobs whose
// infer stage committed before a crash.
func (p *Pipeline) LoadTenantRecs(cycle int, r catalog.RetailerID) (InferResult, error) {
	items, sellers, err := p.loadRecsBlob(cycle, r)
	if err != nil {
		return InferResult{}, err
	}
	return InferResult{Items: items, Sellers: sellers}, nil
}

// GuardResult is the quality firewall's evaluation of one tenant's
// candidate cycle.
type GuardResult struct {
	// Report is the full gate evaluation (verdict, tripped gate, measured
	// statistics) — FoldGuardBaseline consumes it on pass.
	Report guard.Report
	// MAP is the selection metric the guard actually judged, after any
	// injected metric-cliff degradation.
	MAP float64
	// CanaryFraction is the traffic slice a canary verdict routes to the
	// candidate (from guard options; meaningful only on canary).
	CanaryFraction float64
}

// GuardEnabled reports whether the publish-time quality firewall is on.
func (p *Pipeline) GuardEnabled() bool { return p.opts.Guard.Enabled }

// EvaluateGuardTenant runs the quality firewall's gates against one
// tenant's materialized candidate without folding the baseline — the
// caller journals the verdict first, then calls FoldGuardBaseline, so a
// crash between the two replays the identical decision.
func (p *Pipeline) EvaluateGuardTenant(cycle int, r catalog.RetailerID, bestMAP float64, rr *serving.RetailerRecs) (GuardResult, error) {
	t := p.Tenant(r)
	if t == nil {
		return GuardResult{}, fmt.Errorf("pipeline: unknown retailer %s", r)
	}
	grep, adjMAP := p.evaluateGuard(cycle, r, bestMAP, rr, t.Catalog.NumItems())
	return GuardResult{Report: grep, MAP: adjMAP, CanaryFraction: p.opts.Guard.Defaulted().CanaryFraction}, nil
}

// FoldGuardBaseline folds a passing cycle's measurements into the
// tenant's trailing baseline, at most once per cycle (idempotent across
// crash-resume re-executions). Non-pass verdicts are ignored. The verdict
// parameter is the final (possibly journal-replayed) decision, which may
// differ from the freshly evaluated report's own verdict.
func (p *Pipeline) FoldGuardBaseline(cycle int, r catalog.RetailerID, verdict string, res GuardResult) {
	if guard.Verdict(verdict) != guard.VerdictPass {
		return
	}
	p.foldGuardBaseline(cycle, r, res.Report)
}

// Retailers returns the registered retailer IDs in deterministic order.
func (p *Pipeline) Retailers() []catalog.RetailerID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]catalog.RetailerID(nil), p.order...)
}

// PublisherHandle returns the publisher the pipeline was built with (nil
// when only training is wanted).
func (p *Pipeline) PublisherHandle() Publisher { return p.server }

// Observer returns the pipeline's observability surface.
func (p *Pipeline) Observer() *obs.Observer { return p.opts.Obs }

// FS returns the shared filesystem the pipeline stages artifacts on; the
// scheduler keeps its queue journal there so a supervisor restart finds
// it.
func (p *Pipeline) FS() *dfs.FS { return p.fs }
