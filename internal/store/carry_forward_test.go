package store

import (
	"testing"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/serving"
)

// TestFlatCarryForwardThroughHedgesAndCache proves a committed generation
// serves a carried-forward segment beside a fresh one: a degraded tenant's
// manifest entry points at its previous generation's segment, and both
// tenants load as zero-copy flat views and answer identically through the
// full router path, hedged reads and hot-key cache included.
func TestFlatCarryForwardThroughHedgesAndCache(t *testing.T) {
	// Stall replica 0 so every read exercises the hedge machinery instead
	// of the single-replica fast path.
	inj := faults.NewInjector(1, faults.Rule{
		Ops: []faults.Op{faults.OpReplica}, PathContains: "replica-0/serve",
		Kind: faults.Stall, Prob: 1, Delay: 20 * time.Millisecond,
	})
	fs := dfs.New()
	st := New(fs, Options{Shards: 1, Replicas: 2, CacheSize: 8, Faults: inj, HedgeAfter: time.Millisecond})
	defer st.Close()

	// Generation 1: both tenants publish fresh.
	st.Publish(testSnapshot(1, "shop-old", "shop-new"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish gen 1: %v", err)
	}

	// Generation 2: shop-new refreshes, shop-old is degraded with no fresh
	// data — its manifest entry carries the gen-1 segment forward.
	snap := testSnapshot(2, "shop-new")
	snap.MarkDegraded("shop-old", "inference", false)
	st.Publish(snap)
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish gen 2: %v", err)
	}
	if got := st.Version(); got != 2 {
		t.Fatalf("Version = %d, want 2", got)
	}

	// Every replica's committed snapshot must hold both tenants flat-backed:
	// the carried-forward one from its gen-1 segment, the fresh one from
	// gen 2.
	st.shards[0].mu.RLock()
	reps := append([]*Replica(nil), st.shards[0].replicas...)
	st.shards[0].mu.RUnlock()
	for _, rep := range reps {
		rep.mu.Lock()
		snap := rep.mainSnap
		rep.mu.Unlock()
		if snap == nil || snap.Version != 2 {
			t.Fatalf("replica %d: committed snapshot %+v, want generation 2", rep.idx, snap)
		}
		if st := snap.Status["shop-old"]; st == nil || !st.Degraded || st.RecsVersion != 1 {
			t.Fatalf("replica %d: shop-old status %+v, want degraded at recs version 1", rep.idx, st)
		}
		for _, shop := range []catalog.RetailerID{"shop-old", "shop-new"} {
			if rr := snap.Retailers[shop]; rr == nil || rr.Flat == nil || rr.Recs != nil {
				t.Fatalf("replica %d: %s should be flat-backed, got %+v", rep.idx, shop, rr)
			}
		}
	}

	// Both tenants answer identically through the hedged router path.
	// Varying k defeats the cache so each query fans out; replica rotation
	// guarantees some of them start on the stalled replica and hedge.
	for _, shop := range []catalog.RetailerID{"shop-old", "shop-new"} {
		for i := 0; i < 4; i++ {
			recs, src, _, err := st.Serve(shop, viewCtx(), 2+i)
			if err != nil {
				t.Fatalf("Serve(%s) #%d: %v", shop, i, err)
			}
			if src != serving.SourceModel {
				t.Fatalf("Serve(%s) #%d source = %v, want model", shop, i, src)
			}
			if len(recs) != 2 || recs[0].Item != 1 || recs[1].Item != 2 {
				t.Fatalf("Serve(%s) #%d = %+v, want items [1 2]", shop, i, recs)
			}
		}
		// Repeat the last query verbatim: this one must hit the hot-key cache.
		if _, src, _, err := st.Serve(shop, viewCtx(), 5); err != nil || src != serving.SourceModel {
			t.Fatalf("Serve(%s) repeat: src=%v err=%v", shop, src, err)
		}
	}
	if st.Hedges() == 0 {
		t.Fatalf("no hedged reads fired — the slow path was not exercised")
	}
	if _, hits := st.cache.stats(); hits == 0 {
		t.Fatalf("no hot-key cache hits — repeated identical queries should hit")
	}
}
