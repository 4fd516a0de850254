// Package estimate predicts per-tenant job runtimes for the continuous
// fleet scheduler. The predictor is an exponentially weighted moving
// average per (tenant, kind) pair, seeded from the per-tenant phase walls
// the daily pipeline already records in its DayReport. Cold tenants — no
// history for the requested kind — fall back to the fleet median across
// tenants that do have history, so a brand-new tenant is scheduled with a
// typical cost rather than zero. Individual samples are damped before they
// fold in: one pathological wall (a GC pause, a flaky replica retry storm)
// moves the estimate by at most a bounded factor.
//
// Each kind's estimates are also kept in a sorted slice, updated on every
// Observe, so the cold-tenant median is one index rather than a walk and a
// sort of every estimate: Predict costs O(1) and allocates nothing.
package estimate

import (
	"slices"
	"sync"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/pipeline"
)

// Source reports where a prediction came from.
type Source int

const (
	// SourceExact: the (tenant, kind) pair has its own EWMA history.
	SourceExact Source = iota
	// SourceFleetMedian: no history for this tenant; the prediction is the
	// median estimate across tenants with history for the same kind.
	SourceFleetMedian
	// SourceDefault: no tenant anywhere has history for the kind; the
	// estimator's configured default is returned.
	SourceDefault
)

func (s Source) String() string {
	switch s {
	case SourceExact:
		return "exact"
	case SourceFleetMedian:
		return "fleet-median"
	default:
		return "default"
	}
}

// Options configures an Estimator. The zero value takes defaults.
type Options struct {
	// Alpha is the EWMA weight of a new sample (0 < Alpha <= 1).
	// Defaults to 0.3: a few cycles to converge, stable against noise.
	Alpha float64
	// OutlierFactor clamps each incoming sample to
	// [current/OutlierFactor, current*OutlierFactor] before folding, so a
	// single wild wall cannot yank the estimate. <= 1 disables damping.
	// Defaults to 8.
	OutlierFactor float64
	// Default is returned when no tenant has history for a kind.
	// Defaults to 1s.
	Default time.Duration
}

func (o Options) defaulted() Options {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.3
	}
	if o.OutlierFactor == 0 {
		o.OutlierFactor = 8
	}
	if o.Default <= 0 {
		o.Default = time.Second
	}
	return o
}

type key struct {
	tenant catalog.RetailerID
	kind   string
}

// Estimator is a concurrency-safe EWMA runtime predictor.
type Estimator struct {
	opts Options

	mu  sync.Mutex
	est map[key]time.Duration
	// sorted holds, per kind, every tenant's estimate in ascending order;
	// the fleet median is sorted[kind][(n-1)/2].
	sorted map[string][]time.Duration
}

// New returns an estimator with the given options.
func New(opts Options) *Estimator {
	return &Estimator{
		opts:   opts.defaulted(),
		est:    map[key]time.Duration{},
		sorted: map[string][]time.Duration{},
	}
}

// set records d as the pair's estimate, moving it within the kind's
// sorted slice. Callers hold e.mu.
func (e *Estimator) set(k key, d time.Duration) {
	vals := e.sorted[k.kind]
	if old, ok := e.est[k]; ok {
		i, _ := slices.BinarySearch(vals, old)
		vals = slices.Delete(vals, i, i+1)
	}
	i, _ := slices.BinarySearch(vals, d)
	e.sorted[k.kind] = slices.Insert(vals, i, d)
	e.est[k] = d
}

// Observe folds one measured runtime into the (tenant, kind) estimate.
// The first sample for a pair sets the estimate directly; later samples
// are outlier-damped and folded with weight Alpha.
func (e *Estimator) Observe(tenant catalog.RetailerID, kind string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	k := key{tenant, kind}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.est[k]
	if !ok {
		e.set(k, d)
		return
	}
	if f := e.opts.OutlierFactor; f > 1 && cur > 0 {
		lo := time.Duration(float64(cur) / f)
		hi := time.Duration(float64(cur) * f)
		if d < lo {
			d = lo
		} else if d > hi {
			d = hi
		}
	}
	e.set(k, cur+time.Duration(e.opts.Alpha*float64(d-cur)))
}

// Predict returns the estimated runtime for (tenant, kind) and where the
// estimate came from: the pair's own EWMA, the fleet median for the kind
// (cold tenant), or the configured default (cold fleet).
func (e *Estimator) Predict(tenant catalog.RetailerID, kind string) (time.Duration, Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.est[key{tenant, kind}]; ok {
		return d, SourceExact
	}
	vals := e.sorted[kind]
	if len(vals) == 0 {
		return e.opts.Default, SourceDefault
	}
	return vals[(len(vals)-1)/2], SourceFleetMedian
}

// Known reports whether (tenant, kind) has its own history.
func (e *Estimator) Known(tenant catalog.RetailerID, kind string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.est[key{tenant, kind}]
	return ok
}

// Len returns the number of (tenant, kind) pairs with history.
func (e *Estimator) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.est)
}

// Job kinds the daily pipeline's walls map onto. They match the
// scheduler's job-kind names so one estimator serves both paths.
const (
	KindStage = "stage"
	KindTrain = "train"
	KindInfer = "infer"
)

// SeedFromDayReport folds one completed day's per-tenant phase walls into
// the estimator, scaling each wall by scale (the scheduler's real→virtual
// time factor; use 1 for real time). Degraded tenants are skipped — their
// truncated walls would poison the estimate with near-zero samples.
func SeedFromDayReport(e *Estimator, rep pipeline.DayReport, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	for _, rr := range rep.Retailers {
		if rr.Degraded {
			continue
		}
		for _, w := range []struct {
			kind string
			wall time.Duration
		}{
			{KindStage, rr.StagingWall},
			{KindTrain, rr.TrainWall},
			{KindInfer, rr.InferWall},
		} {
			if w.wall <= 0 {
				continue
			}
			e.Observe(rr.Retailer, w.kind, time.Duration(float64(w.wall)*scale))
		}
	}
}
