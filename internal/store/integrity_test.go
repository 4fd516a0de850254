package store

import (
	"bytes"
	"reflect"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/serving"
)

// integritySnapshot is testSnapshot with generation-dependent item IDs, so
// a tenant serving generation N−1 data is distinguishable from one serving
// generation N by response content, not just metadata (blending normalizes
// scores, so varying those alone would not show through).
func integritySnapshot(gen int64, retailers ...catalog.RetailerID) *serving.Snapshot {
	per := map[catalog.RetailerID][]inference.ItemRecs{}
	pop := map[catalog.RetailerID][]catalog.ItemID{}
	a, b := catalog.ItemID(100+gen), catalog.ItemID(200+gen)
	for _, r := range retailers {
		per[r] = []inference.ItemRecs{
			{Item: 0, View: []hybrid.Scored{{Item: a, Score: 0.9}, {Item: b, Score: 0.8}},
				Purchase: []hybrid.Scored{{Item: b, Score: 0.7}}},
			{Item: 1, View: []hybrid.Scored{{Item: 0, Score: 0.6}}},
		}
		pop[r] = []catalog.ItemID{a, b, 0}
	}
	return serving.BuildSnapshot(gen, per, pop)
}

// TestChaosIntegrityDrill is the end-to-end bit-rot drill: a control fleet
// publishes two clean generations while the victim fleet takes the same
// publishes through write rot (a flipped bit, a truncation), transient
// read rot at load time, and at-rest rot between publishes. The invariants:
// zero corrupt responses escape (every response byte-identical to the
// control's), every injected corruption is detected and counted, every one
// is repaired, and after the scrub pass the victim's stored fleet is
// byte-identical to the uninjected control's.
func TestChaosIntegrityDrill(t *testing.T) {
	const seed = 42
	retailers := testRetailers(8)
	newStore := func(fs *dfs.FS) *Store {
		return New(fs, Options{Shards: 2, Replicas: 2, CacheSize: -1, Seed: seed, Retry: fastRetry})
	}
	serve := func(st *Store, r catalog.RetailerID) []serving.Recommendation {
		t.Helper()
		recs, _, _, err := st.Serve(r, viewCtx(), 5)
		if err != nil {
			t.Fatalf("Serve(%s): %v", r, err)
		}
		if len(recs) == 0 {
			t.Fatalf("Serve(%s) returned nothing", r)
		}
		return recs
	}

	controlFS := dfs.New()
	control := newStore(controlFS)
	defer control.Close()
	control.Publish(integritySnapshot(1, retailers...))
	control.Publish(integritySnapshot(2, retailers...))
	if err := control.PublishErr(); err != nil {
		t.Fatalf("control publish: %v", err)
	}
	want := map[catalog.RetailerID][]serving.Recommendation{}
	for _, r := range retailers {
		want[r] = serve(control, r)
	}

	victimFS := dfs.New()
	victim := newStore(victimFS)
	defer victim.Close()
	victim.Publish(integritySnapshot(1, retailers...))
	if err := victim.PublishErr(); err != nil {
		t.Fatalf("victim publish 1: %v", err)
	}

	// Generation 2 publishes through three distinct corruption events:
	// write rot on two segments (a flipped bit, a truncation — caught by
	// the publish write-verify before any replica loads them) and one
	// transient read rot at the first replica load (After:1 skips the
	// write-verify read-back; the verified re-read repairs it).
	victimFS.SetInjector(faults.NewInjector(seed,
		faults.Rule{Ops: []faults.Op{faults.OpWrite}, Kind: faults.BitFlip,
			PathContains: "gen-2/seg/retailer-000", EveryNth: 1, Times: 1},
		faults.Rule{Ops: []faults.Op{faults.OpWrite}, Kind: faults.Truncate,
			PathContains: "gen-2/seg/retailer-001", EveryNth: 1, Times: 1},
		faults.Rule{Ops: []faults.Op{faults.OpRead}, Kind: faults.BitFlip,
			PathContains: "gen-2/seg/retailer-002", EveryNth: 1, After: 1, Times: 1},
	))
	victim.Publish(integritySnapshot(2, retailers...))
	if err := victim.PublishErr(); err != nil {
		t.Fatalf("victim publish 2 under corruption: %v", err)
	}
	victimFS.SetInjector(nil)

	_, corrupt, repaired := victim.IntegrityCounts()
	if corrupt != 3 || repaired != 3 {
		t.Fatalf("after corrupted publish: corrupt=%d repaired=%d, want 3/3", corrupt, repaired)
	}
	if q := victim.QuarantinedBlobs(); len(q) != 0 {
		t.Fatalf("quarantine not empty after repair: %v", q)
	}
	if n := victim.IntegrityFallbacks(); n != 0 {
		t.Fatalf("IntegrityFallbacks = %d, want 0 (everything repaired in place)", n)
	}
	for _, r := range retailers {
		if got := serve(victim, r); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("response for %s diverged from control:\n got: %+v\nwant: %+v", r, got, want[r])
		}
	}

	// At-rest rot between publishes: rewrite retailer-003's committed
	// gen-2 segment with one bit of its stored image flipped (a BitFlip
	// write rule garbles the image after its footer is computed, so the
	// blob no longer verifies). Serving is untouched — replicas hold
	// verified in-memory copies — and the scrubber detects the rot and
	// re-replicates the blob from a replica.
	target := segmentPath(2, retailers[3])
	clean, err := victimFS.Read(target)
	if err != nil {
		t.Fatalf("reading %s before rot: %v", target, err)
	}
	victimFS.SetInjector(faults.NewInjector(3, faults.Rule{Ops: []faults.Op{faults.OpWrite},
		Kind: faults.BitFlip, PathContains: target, EveryNth: 1, Times: 1}))
	if err := victimFS.Write(target, clean); err != nil {
		t.Fatalf("planting at-rest rot: %v", err)
	}
	victimFS.SetInjector(nil)
	if got := serve(victim, retailers[3]); !reflect.DeepEqual(got, want[retailers[3]]) {
		t.Fatalf("at-rest rot leaked into serving: %+v", got)
	}
	rep := victim.ScrubOnce()
	if rep.Corrupt != 1 || rep.Repaired != 1 || len(rep.Unrepaired) != 0 {
		t.Fatalf("scrub report = %+v, want 1 detected, 1 repaired, none unrepaired", rep)
	}
	if rep.Scrubbed == 0 {
		t.Fatal("scrub verified nothing")
	}
	scrubbed, corrupt, repaired := victim.IntegrityCounts()
	if corrupt != 4 || repaired != 4 || scrubbed == 0 {
		t.Fatalf("final counts: scrubbed=%d corrupt=%d repaired=%d, want 4 corrupt, 4 repaired", scrubbed, corrupt, repaired)
	}

	// Post-repair, the victim's stored fleet is byte-identical to the
	// uninjected control's: same files, same payloads, all verifying.
	wantFiles := controlFS.List("store/")
	gotFiles := victimFS.List("store/")
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Fatalf("file sets diverged:\n got: %v\nwant: %v", gotFiles, wantFiles)
	}
	for _, path := range wantFiles {
		cb, cerr := controlFS.Read(path)
		vb, verr := victimFS.Read(path)
		if cerr != nil || verr != nil {
			t.Fatalf("reading %s: control err %v, victim err %v", path, cerr, verr)
		}
		if !bytes.Equal(cb, vb) {
			t.Fatalf("%s differs from control after repair", path)
		}
	}
	for _, r := range retailers {
		if got := serve(victim, r); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("post-scrub response for %s diverged from control", r)
		}
	}

	// The /statz integrity block reports the whole story.
	info, ok := victim.StatzBlocks()["integrity"].(serving.IntegrityInfo)
	if !ok {
		t.Fatal("StatzBlocks missing the integrity block")
	}
	if info.Corrupt != 4 || info.Repaired != 4 || info.ScrubPasses != 1 || len(info.Quarantined) != 0 {
		t.Fatalf("integrity block = %+v", info)
	}
}

// TestScrubKeepsCarriedForwardSegmentAndHealsDeletion: a segment
// generations past the retention window but still referenced by a
// carry-forward manifest entry must survive scrub GC; hand-deleting it is
// detected as an integrity event and healed from a replica's in-memory
// copy — never surfacing as a serving error.
func TestScrubKeepsCarriedForwardSegmentAndHealsDeletion(t *testing.T) {
	fs := dfs.New()
	st := New(fs, Options{Shards: 1, Replicas: 2, CacheSize: -1, KeepGenerations: 1})
	defer st.Close()
	st.Publish(integritySnapshot(1, "shop-a", "shop-b"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish 1: %v", err)
	}
	wantStale, _, _, err := st.Serve("shop-a", viewCtx(), 5)
	if err != nil {
		t.Fatalf("Serve(shop-a): %v", err)
	}

	// Three cycles where shop-a degrades without fresh data: its manifest
	// entry keeps pointing at the gen-1 segment, far past KeepGenerations.
	for gen := int64(2); gen <= 4; gen++ {
		snap := integritySnapshot(gen, "shop-b")
		snap.MarkDegraded("shop-a", "train", false)
		st.Publish(snap)
		if err := st.PublishErr(); err != nil {
			t.Fatalf("publish %d: %v", gen, err)
		}
		if rep := st.ScrubOnce(); rep.Corrupt != 0 || len(rep.Unrepaired) != 0 {
			t.Fatalf("clean fleet scrub at gen %d reported %+v", gen, rep)
		}
	}
	carried := segmentPath(1, "shop-a")
	if !fs.Exists(carried) {
		t.Fatal("scrub GC deleted the carried-forward segment")
	}
	if fs.Exists(segmentPath(2, "shop-b")) {
		t.Fatal("unreferenced out-of-retention segment survived GC")
	}

	// At-rest data loss: the carried-forward blob vanishes. Serving keeps
	// answering from memory, and the scrubber re-replicates the blob from
	// a replica's committed copy — which still holds exactly recs version 1
	// for shop-a.
	if err := fs.Delete(carried); err != nil {
		t.Fatalf("deleting %s: %v", carried, err)
	}
	got, _, _, err := st.Serve("shop-a", viewCtx(), 5)
	if err != nil || !reflect.DeepEqual(got, wantStale) {
		t.Fatalf("serving after deletion: recs=%+v err=%v, want the stale gen-1 recs", got, err)
	}
	rep := st.ScrubOnce()
	if rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub after deletion = %+v, want 1 detected, 1 repaired", rep)
	}
	if !fs.Exists(carried) {
		t.Fatal("scrub did not restore the deleted segment")
	}
	rr, _, err := st.fetchVerified(carried)
	if err != nil || rr == nil {
		t.Fatalf("restored segment unreadable: %v", err)
	}

	// A crashed replica catches up through the restored blob too.
	st.KillReplica(0, 1)
	if err := st.ReviveReplica(0, 1); err != nil {
		t.Fatalf("revive after heal: %v", err)
	}
	if got, _, _, err := st.Serve("shop-a", viewCtx(), 5); err != nil || !reflect.DeepEqual(got, wantStale) {
		t.Fatalf("post-revive serving: recs=%+v err=%v", got, err)
	}
	if q := st.QuarantinedBlobs(); len(q) != 0 {
		t.Fatalf("quarantine not empty: %v", q)
	}
}

// TestReviveHealsDeletedSegmentFromPeer: a replica bulk-loading a
// generation whose blob is missing re-replicates it from a live peer
// replica instead of failing the load.
func TestReviveHealsDeletedSegmentFromPeer(t *testing.T) {
	fs := dfs.New()
	st := New(fs, Options{Shards: 1, Replicas: 2, CacheSize: -1})
	defer st.Close()
	st.Publish(integritySnapshot(1, "shop-a", "shop-b"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	path := segmentPath(1, "shop-a")
	if err := fs.Delete(path); err != nil {
		t.Fatal(err)
	}
	st.KillReplica(0, 0)
	if err := st.ReviveReplica(0, 0); err != nil {
		t.Fatalf("revive with missing blob: %v", err)
	}
	if !fs.Exists(path) {
		t.Fatal("revive did not heal the missing blob")
	}
	_, corrupt, repaired := st.IntegrityCounts()
	if corrupt != 1 || repaired != 1 {
		t.Fatalf("counts = %d/%d, want 1 detected, 1 repaired", corrupt, repaired)
	}
	if recs, _, _, err := st.Serve("shop-a", viewCtx(), 5); err != nil || len(recs) == 0 {
		t.Fatalf("serving after heal: %v", err)
	}
}

// TestIntegrityLoadFallsBackToPreviousGeneration: persistent rot on a
// fresh segment that no peer can repair (nobody holds the new generation
// yet) must not poison serving or fail the publish — the affected tenant
// keeps its previous generation, marked degraded with phase "integrity",
// while the rest of the fleet advances.
func TestIntegrityLoadFallsBackToPreviousGeneration(t *testing.T) {
	fs := dfs.New()
	st := New(fs, Options{Shards: 1, Replicas: 2, CacheSize: -1, Retry: fastRetry})
	defer st.Close()
	st.Publish(integritySnapshot(1, "shop-a", "shop-b"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish 1: %v", err)
	}
	gen1Recs, _, _, err := st.Serve("shop-a", viewCtx(), 5)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Every read of shop-a's gen-2 segment after the write-verify
	// read-back returns flipped bits: re-reads can't fix it, and no
	// replica holds generation 2 yet, so peer repair has nothing to offer.
	fs.SetInjector(faults.NewInjector(7, faults.Rule{
		Ops: []faults.Op{faults.OpRead}, Kind: faults.BitFlip,
		PathContains: "gen-2/seg/shop-a", EveryNth: 1, After: 1,
	}))
	st.Publish(integritySnapshot(2, "shop-a", "shop-b"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish 2 must survive unrepairable rot: %v", err)
	}

	// shop-b is fresh at generation 2; shop-a still serves its gen-1 data.
	if _, _, gen, err := st.Serve("shop-b", viewCtx(), 5); err != nil || gen != 2 {
		t.Fatalf("shop-b: gen=%d err=%v, want generation 2", gen, err)
	}
	got, _, _, err := st.Serve("shop-a", viewCtx(), 5)
	if err != nil {
		t.Fatalf("shop-a must keep serving: %v", err)
	}
	if !reflect.DeepEqual(got, gen1Recs) {
		t.Fatalf("shop-a recs = %+v, want the gen-1 recs (poison-free fallback)", got)
	}
	if st.IntegrityFallbacks() == 0 {
		t.Fatal("no integrity fallback recorded")
	}
	_, corrupt, repaired := st.IntegrityCounts()
	if corrupt == 0 || repaired != 0 {
		t.Fatalf("counts = %d/%d, want detections and no (false) repairs", corrupt, repaired)
	}
	if q := st.QuarantinedBlobs(); len(q) != 1 || q[0] != segmentPath(2, "shop-a") {
		t.Fatalf("quarantine = %v, want exactly the rotten segment", q)
	}
	// The replica-level status carries the mark.
	rep := st.Replica(0, 0)
	rep.mu.Lock()
	ts := rep.mainSnap.Status["shop-a"]
	rep.mu.Unlock()
	if ts == nil || !ts.Degraded || ts.DegradedPhase != "integrity" || ts.RecsVersion != 1 {
		t.Fatalf("shop-a status = %+v, want degraded/integrity at recs version 1", ts)
	}

	// The rot clears; the next publish heals the tenant and the scrubber
	// lifts the now-unreferenced quarantine entry.
	fs.SetInjector(nil)
	st.Publish(integritySnapshot(3, "shop-a", "shop-b"))
	if err := st.PublishErr(); err != nil {
		t.Fatalf("publish 3: %v", err)
	}
	if got, _, _, err := st.Serve("shop-a", viewCtx(), 5); err != nil || reflect.DeepEqual(got, gen1Recs) {
		t.Fatalf("shop-a not healed by the next publish: recs=%+v err=%v", got, err)
	}
	st.ScrubOnce()
	if q := st.QuarantinedBlobs(); len(q) != 0 {
		t.Fatalf("stale quarantine survived scrub: %v", q)
	}
}

// TestScrubResetsCorruptGuardBaseline: a guard baseline that fails
// verification is deleted, converting silent poison into the guard's
// well-defined warmup path (LoadBaseline returns nil).
func TestScrubResetsCorruptGuardBaseline(t *testing.T) {
	fs := dfs.New()
	st := New(fs, Options{Shards: 1, Replicas: 1, CacheSize: -1})
	defer st.Close()
	fs.Write("guard/baselines/shop-a", []byte(`{"map10":0.5,"days":3}`))
	fs.SetInjector(faults.NewInjector(1, faults.Rule{Ops: []faults.Op{faults.OpWrite},
		Kind: faults.BitFlip, PathContains: "guard/baselines/shop-b", EveryNth: 1, Times: 1}))
	fs.Write("guard/baselines/shop-b", []byte(`{"map10":0.9,"days":9}`))
	fs.SetInjector(nil)

	rep := st.ScrubOnce()
	if rep.Corrupt != 1 {
		t.Fatalf("scrub report = %+v, want 1 corrupt baseline", rep)
	}
	if !fs.Exists("guard/baselines/shop-a") {
		t.Fatal("healthy baseline deleted")
	}
	if fs.Exists("guard/baselines/shop-b") {
		t.Fatal("corrupt baseline not reset")
	}
	if q := st.QuarantinedBlobs(); len(q) != 0 {
		t.Fatalf("reset baseline left quarantine: %v", q)
	}
}
