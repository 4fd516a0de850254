package estimate

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sigmund/internal/catalog"
)

// referencePredict is Predict without the sorted per-kind index: the
// pair's own estimate, else a walk of every estimate of the kind, sorted,
// lower middle picked.
func referencePredict(e *Estimator, tenant catalog.RetailerID, kind string) (time.Duration, Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.est[key{tenant, kind}]; ok {
		return d, SourceExact
	}
	var vals []time.Duration
	for k, d := range e.est {
		if k.kind == kind {
			vals = append(vals, d)
		}
	}
	if len(vals) == 0 {
		return e.opts.Default, SourceDefault
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[(len(vals)-1)/2], SourceFleetMedian
}

// TestPredictMatchesReference interleaves random Observe and Predict calls
// and checks every prediction, value and source, against the unindexed
// reference. Samples come from a small set of values and, in the
// undamped configuration, fold in unchanged, so equal estimates across
// tenants are common; cold kinds exercise the default, and tenants
// without history of a kind exercise the fleet median.
func TestPredictMatchesReference(t *testing.T) {
	kinds := []string{KindStage, KindTrain, KindInfer}
	configs := []Options{
		{},                             // EWMA with damping: mostly distinct values
		{Alpha: 1, OutlierFactor: -1},  // samples replace estimates: many ties
		{Alpha: 0.5, OutlierFactor: 2}, // halving steps: ties on exact binary fractions
		{Default: 3 * time.Second},     // a default that collides with sampled values
		{Alpha: 1, OutlierFactor: -1, Default: time.Nanosecond},
	}
	for ci, opts := range configs {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("config%d/seed%d", ci, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e := New(opts)
				tenants := 2 + rng.Intn(10)
				sources := map[Source]int{}
				for step := 0; step < 400; step++ {
					tenant := catalog.RetailerID(fmt.Sprintf("t%d", rng.Intn(tenants)))
					kind := kinds[rng.Intn(len(kinds))]
					if rng.Intn(3) == 0 {
						d := time.Duration(rng.Intn(5)) * time.Second
						if rng.Intn(10) == 0 {
							d = -d
						}
						e.Observe(tenant, kind, d)
						continue
					}
					gd, gs := e.Predict(tenant, kind)
					wd, ws := referencePredict(e, tenant, kind)
					if gd != wd || gs != ws {
						t.Fatalf("step %d: Predict(%s, %s) = %v from %v, reference %v from %v",
							step, tenant, kind, gd, gs, wd, ws)
					}
					sources[gs]++
				}
				for _, src := range []Source{SourceExact, SourceFleetMedian} {
					if sources[src] == 0 {
						t.Fatalf("no %v predictions exercised: %v", src, sources)
					}
				}
				// The index holds exactly the estimates, per kind.
				e.mu.Lock()
				defer e.mu.Unlock()
				for _, kind := range kinds {
					var want []time.Duration
					for k, d := range e.est {
						if k.kind == kind {
							want = append(want, d)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					got := e.sorted[kind]
					if len(got) != len(want) {
						t.Fatalf("kind %s: index holds %d estimates, map %d", kind, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("kind %s: index %v, estimates %v", kind, got, want)
						}
					}
				}
			})
		}
	}
}

// TestDefaultBeforeAnyHistory: every kind predicts the default until some
// tenant observes it, and the first observation of a kind turns cold
// predictions into that value.
func TestDefaultBeforeAnyHistory(t *testing.T) {
	e := New(Options{Default: 7 * time.Second})
	for _, kind := range []string{KindStage, KindTrain, KindInfer} {
		if d, src := e.Predict("x", kind); d != 7*time.Second || src != SourceDefault {
			t.Fatalf("%s: %v from %v, want 7s default", kind, d, src)
		}
	}
	e.Observe("a", KindTrain, 2*time.Second)
	if d, src := e.Predict("x", KindTrain); d != 2*time.Second || src != SourceFleetMedian {
		t.Fatalf("after one sample: %v from %v, want 2s fleet-median", d, src)
	}
	if _, src := e.Predict("x", KindStage); src != SourceDefault {
		t.Fatalf("stage borrowed train history: %v", src)
	}
}

// TestPredictDoesNotAllocate: warm (exact) and repeated cold (fleet
// median) predictions allocate nothing, however large the fleet.
func TestPredictDoesNotAllocate(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 500; i++ {
		e.Observe(catalog.RetailerID(fmt.Sprintf("t%03d", i)), KindTrain, time.Duration(i)*time.Millisecond)
	}
	warm := testing.AllocsPerRun(100, func() { e.Predict("t042", KindTrain) })
	cold := testing.AllocsPerRun(100, func() { e.Predict("new", KindTrain) })
	empty := testing.AllocsPerRun(100, func() { e.Predict("new", KindInfer) })
	if warm != 0 || cold != 0 || empty != 0 {
		t.Fatalf("allocs per Predict: warm %v, cold %v, default %v; want 0", warm, cold, empty)
	}
	if d, src := e.Predict("new", KindTrain); src != SourceFleetMedian || d != 249*time.Millisecond {
		t.Fatalf("cold prediction %v from %v, want 249ms fleet-median", d, src)
	}
}
