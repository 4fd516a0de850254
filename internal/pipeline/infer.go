package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/cooccur"
	"sigmund/internal/core/candidates"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/core/modelselect"
	"sigmund/internal/faults"
	"sigmund/internal/interactions"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
)

// runInference materializes recommendations for every healthy retailer
// with a trained model and builds one batch snapshot (Figure 5's
// schematic). Retailers are bin-packed across cells by inventory size —
// greedy first-fit, the paper's heuristic — and cells run concurrently.
//
// Each retailer's materialization is its own fault domain: a failure
// (including a recovered panic) marks only that retailer degraded —
// recorded in the degraded map — and the rest of the cell's retailers
// still materialize. The returned snapshot contains recommendations for
// the successful retailers; the caller marks degraded tenants on it before
// publishing so serving carries their previous recommendations forward.
// The returned counters aggregate every materialization job's MapReduce
// counters (including failed jobs' partial work).
//
// With day journaling (dj != nil), each tenant's materialized
// recommendations are persisted to the shared filesystem before its
// completion record commits; a resumed day reloads them bit-for-bit
// instead of re-materializing. The returned error is fleet-level only
// (journal failure or coordinator crash).
func (p *Pipeline) runInference(
	ctx context.Context,
	day int,
	ids []catalog.RetailerID,
	tenants map[catalog.RetailerID]*Tenant,
	byRetailer map[catalog.RetailerID][]modelselect.ConfigRecord,
	reports map[catalog.RetailerID]*RetailerReport,
	degraded map[catalog.RetailerID]*degradation,
	span *obs.Span,
	dj *dayJournal,
) (*serving.Snapshot, mapreduce.Counters, error) {
	// Only healthy retailers with a usable best model are materialized.
	type job struct {
		id     catalog.RetailerID
		tenant *Tenant
		best   modelselect.ConfigRecord
	}
	var jobs []job
	var weights []float64
	for _, id := range ids {
		if degraded[id] != nil {
			continue
		}
		best, ok := modelselect.Best(byRetailer[id])
		if !ok {
			continue
		}
		t := tenants[id]
		jobs = append(jobs, job{id: id, tenant: t, best: best})
		weights = append(weights, float64(t.Catalog.NumItems()))
	}

	perRetailer := make(map[catalog.RetailerID][]inference.ItemRecs, len(jobs))
	pop := make(map[catalog.RetailerID][]catalog.ItemID, len(jobs))
	failed := map[catalog.RetailerID]error{}
	var counters mapreduce.Counters
	var fleetErr error // journal failure or coordinator crash
	if len(jobs) > 0 {
		assign := inference.Partition(weights, p.opts.Cells, inference.GreedyFirstFit)
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for cell := 0; cell < p.opts.Cells; cell++ {
			var mine []job
			for i, j := range jobs {
				if assign.Bin[i] == cell {
					mine = append(mine, j)
				}
			}
			if len(mine) == 0 {
				continue
			}
			wg.Add(1)
			go func(cell int, mine []job) {
				defer wg.Done()
				for _, j := range mine {
					jobStart := time.Now()
					tspan := span.Child("tenant:"+string(j.id), obs.L("cell", strconv.Itoa(cell)))
					if dj != nil {
						if rec := dj.inferredRecord(j.id); rec != nil {
							recs, sellers, lerr := p.loadRecsBlob(day, j.id)
							if lerr == nil {
								mu.Lock()
								if rec.Counters != nil {
									counters.Add(*rec.Counters)
								}
								perRetailer[j.id] = recs
								pop[j.id] = sellers
								if rep := reports[j.id]; rep != nil {
									rep.ItemsServed = len(recs)
								}
								mu.Unlock()
								tspan.SetAttr("outcome", "replayed")
								tspan.SetAttr("items", strconv.Itoa(len(recs)))
								tspan.EndWith(0)
								continue
							}
							// Missing/corrupt blob: re-materialize below.
						}
					}
					recs, sellers, c, err := p.inferRetailerSafe(ctx, day, j.tenant, j.best)
					mu.Lock()
					counters.Add(c)
					if err != nil {
						failed[j.id] = fmt.Errorf("inference for %s (cell %d): %w", j.id, cell, err)
						if rep := reports[j.id]; rep != nil {
							rep.InferWall = time.Since(jobStart)
						}
						mu.Unlock()
						endTenantSpan(tspan, &degradation{phase: PhaseInfer, err: err})
						continue
					}
					perRetailer[j.id] = recs
					pop[j.id] = sellers
					if rep := reports[j.id]; rep != nil {
						rep.ItemsServed = len(recs)
						rep.InferWall = time.Since(jobStart)
					}
					mu.Unlock()
					if dj != nil {
						// Persist the materialization, then commit its
						// completion record. If the blob write fails the
						// record is withheld: a resume just re-materializes
						// this tenant. A failed record append is fleet-level
						// — the work itself succeeded.
						if werr := p.writeWithRetry(ctx, recsPath(day, j.id), segment.Encode(recs, sellers)); werr == nil {
							if aerr := dj.append(ctx, journalRecord{Type: recInferred, Retailer: j.id, Counters: &c, ItemsServed: len(recs)}); aerr != nil {
								mu.Lock()
								if fleetErr == nil {
									fleetErr = aerr
								}
								mu.Unlock()
							}
						}
					}
					tspan.SetAttr("outcome", "ok")
					tspan.SetAttr("items", strconv.Itoa(len(recs)))
					tspan.End()
				}
			}(cell, mine)
		}
		wg.Wait()
	}
	if fleetErr != nil {
		return nil, counters, fleetErr
	}

	for id, err := range failed {
		if degraded[id] == nil {
			degraded[id] = &degradation{phase: PhaseInfer, err: err}
		}
	}
	return serving.BuildSnapshot(int64(day+1), perRetailer, pop), counters, nil
}

// inferRetailerSafe runs one retailer's materialization behind the fault
// injector and a panic barrier: a panicking inference job degrades only
// its own retailer.
func (p *Pipeline) inferRetailerSafe(ctx context.Context, day int, t *Tenant, best modelselect.ConfigRecord) (items []inference.ItemRecs, sellers []catalog.ItemID, counters mapreduce.Counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			items, sellers = nil, nil
			err = fmt.Errorf("pipeline: inference for %s panicked: %v", best.Retailer, r)
		}
	}()
	if err := p.opts.Injector.Before(faults.OpInfer, faultPath(day, best.Retailer)); err != nil {
		return nil, nil, counters, err
	}
	items, sellers, counters, err = p.inferRetailer(ctx, day, t, best)
	if err == nil {
		// Degenerate-model injection (OpModel) corrupts the materialized
		// lists here, before they are persisted to the recs blob, so a
		// crash-resume replays the exact same degenerate output and the
		// guard's verdict is reproducible.
		if kind, ok := p.opts.Injector.ModelFault(faultPath(day, best.Retailer), faults.ModelNaN, faults.ModelCollapse); ok {
			degradeModelOutput(kind, items)
		}
	}
	return items, sellers, counters, err
}

// inferRetailer materializes one retailer: load the best model, assemble
// the hybrid recommender over fresh co-occurrence/stats/candidates, and run
// the per-item job.
func (p *Pipeline) inferRetailer(ctx context.Context, day int, t *Tenant, best modelselect.ConfigRecord) ([]inference.ItemRecs, []catalog.ItemID, mapreduce.Counters, error) {
	var counters mapreduce.Counters
	model, err := p.loadModelFrom(best.ModelPath)
	if err != nil {
		return nil, nil, counters, err
	}
	cat := t.Catalog
	if model.NumItems < cat.NumItems() {
		// Items added after training still need serving coverage: grow the
		// model with cold random embeddings (features carry them).
		if err := model.ExpandToCatalog(cat, warmStartRNG(best)); err != nil {
			return nil, nil, counters, err
		}
	}
	cooc := cooccur.FromLog(t.Log, cat.NumItems(), cooccur.DefaultWindow)
	stats := interactions.ComputeItemStats(t.Log, cat.NumItems())
	sel := candidates.NewSelector(cat, cooc)
	sel.Repurchase = candidates.ComputeRepurchase(t.Log, cat, 0.3)
	rec := hybrid.NewRecommender(cooc, model, sel, stats)
	rec.HeadMinEvents = p.opts.HeadMinEvents
	rec.TopK = p.opts.InferTopK

	items, counters, err := inference.MaterializeStats(ctx, rec, cat, inference.Options{
		TopK:             p.opts.InferTopK,
		Workers:          p.opts.InferWorkers,
		SkipOutOfStock:   true,
		LateFunnelFacets: p.opts.LateFunnelFacets,
		Substrate:        p.substrateFor(day, "infer/"+string(best.Retailer)),
		Metrics:          p.opts.Obs.Reg(),
	})
	if err != nil {
		return nil, nil, counters, err
	}

	// Popularity fallback list for contextless users.
	var sellers []catalog.ItemID
	for _, id := range stats.PopularityOrder() {
		if !cat.Item(id).InStock {
			continue
		}
		sellers = append(sellers, id)
		if len(sellers) == 50 {
			break
		}
	}
	return items, sellers, counters, nil
}
