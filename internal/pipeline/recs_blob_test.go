package pipeline

import (
	"context"
	"math"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/serving"
)

// recsModes are the inference outputs the recs-blob checks cover: a clean
// day and the two degenerate-model faults that rewrite the materialized
// lists before they are persisted (NaN scores, collapsed lists).
var recsModes = []struct {
	name string
	inj  *faults.Injector
	nan  bool // the mode's output carries NaN scores
}{
	{"clean", nil, false},
	{"nan", modelFaultInjector(faults.ModelNaN), true},
	{"collapse", modelFaultInjector(faults.ModelCollapse), false},
}

// modelFaultInjector applies a degenerate-model fault to every tenant.
func modelFaultInjector(kind faults.Kind) *faults.Injector {
	return faults.NewInjector(1, faults.Rule{Ops: []faults.Op{faults.OpModel}, Kind: kind, EveryNth: 1})
}

// TestLoadTenantRecsMatchesInfer checks the recs blob's round trip: for
// every tenant, under clean and degenerate-model inference, the SSG2 blob
// InferTenant persists must reload through LoadTenantRecs bit for bit
// equal to InferTenant's in-memory output. A resumed day or scheduler
// cycle serves the reloaded form, so any drift here would break the crash
// sweeps' byte-identity with an uninterrupted control.
func TestLoadTenantRecsMatchesInfer(t *testing.T) {
	ctx := context.Background()
	for _, mode := range recsModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := testOptions()
			opts.Injector = mode.inj
			p := New(dfs.New(), serving.NewServer(), opts)
			for _, r := range chaosFleet(t, 6) {
				mustAdd(t, p, r)
			}
			nans := 0
			for _, r := range p.Retailers() {
				sr, err := p.StageTenant(ctx, 0, r)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := p.TrainTenant(ctx, 0, r, sr.Configs)
				if err != nil || !tr.BestOK {
					t.Fatalf("%s: training: %v (best ok %v)", r, err, tr.BestOK)
				}
				inf, err := p.InferTenant(ctx, 0, r, tr.Best)
				if err != nil {
					t.Fatal(err)
				}
				if len(inf.Items) == 0 {
					t.Fatalf("%s: inference materialized no items", r)
				}
				loaded, err := p.LoadTenantRecs(0, r)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRecs(t, string(r), loaded.Items, loaded.Sellers, inf.Items, inf.Sellers)
				for _, ir := range loaded.Items {
					for _, s := range ir.View {
						if math.IsNaN(s.Score) {
							nans++
						}
					}
				}
			}
			if (nans > 0) != mode.nan {
				t.Fatalf("%d NaN scores reloaded in mode %s", nans, mode.name)
			}
		})
	}
}

// assertSameRecs compares two materializations bit for bit: scores as
// Float64bits (so NaN payloads compare equal to themselves), and nil-ness
// of every list, so the nil-for-empty convention is part of the contract.
func assertSameRecs(t *testing.T, label string, gotItems []inference.ItemRecs, gotSellers []catalog.ItemID, wantItems []inference.ItemRecs, wantSellers []catalog.ItemID) {
	t.Helper()
	if len(gotItems) != len(wantItems) || (gotItems == nil) != (wantItems == nil) {
		t.Fatalf("%s: %d items (nil %v), want %d (nil %v)", label, len(gotItems), gotItems == nil, len(wantItems), wantItems == nil)
	}
	for i := range wantItems {
		g, w := gotItems[i], wantItems[i]
		if g.Item != w.Item {
			t.Fatalf("%s: item %d is %d, want %d", label, i, g.Item, w.Item)
		}
		for _, l := range []struct {
			name      string
			got, want []hybrid.Scored
		}{{"view", g.View, w.View}, {"purchase", g.Purchase, w.Purchase}, {"late-funnel", g.LateFunnel, w.LateFunnel}} {
			if len(l.got) != len(l.want) || (l.got == nil) != (l.want == nil) {
				t.Fatalf("%s: item %d %s list has %d recs (nil %v), want %d (nil %v)",
					label, w.Item, l.name, len(l.got), l.got == nil, len(l.want), l.want == nil)
			}
			for j := range l.want {
				gs, ws := l.got[j], l.want[j]
				if gs.Item != ws.Item || gs.Source != ws.Source || math.Float64bits(gs.Score) != math.Float64bits(ws.Score) {
					t.Fatalf("%s: item %d %s rec %d = %+v, want %+v", label, w.Item, l.name, j, gs, ws)
				}
			}
		}
	}
	if len(gotSellers) != len(wantSellers) || (gotSellers == nil) != (wantSellers == nil) {
		t.Fatalf("%s: %d top sellers (nil %v), want %d (nil %v)", label, len(gotSellers), gotSellers == nil, len(wantSellers), wantSellers == nil)
	}
	for i := range wantSellers {
		if gotSellers[i] != wantSellers[i] {
			t.Fatalf("%s: top seller %d is %d, want %d", label, i, gotSellers[i], wantSellers[i])
		}
	}
}
