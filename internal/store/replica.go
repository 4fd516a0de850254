package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/faults"
	"sigmund/internal/interactions"
	"sigmund/internal/obs"
	"sigmund/internal/serving"
)

// Replica is one copy of a shard's data: an embedded single-node serving
// engine holding the immutable segments of the shard's current generation.
// Publishes are two-phase — prepare bulk-loads the next generation's
// segments from the shared filesystem into a staged snapshot, commit swaps
// it in atomically — so a failed load never tears the serving generation.
//
// A replica simulates one machine: an optional per-request service time
// and a bounded concurrency gate model its capacity, and the fault plan
// (faults.OpReplica) can crash it, stall it, or fail individual requests.
type Replica struct {
	shard, idx int
	// srv reports into a private observer: replica-internal serving
	// counters would collide across shards in the shared registry (every
	// shard holds a different tenant subset); the store's own
	// sigmund_store_* metrics carry the fleet-wide signal instead.
	srv *serving.Server
	// canary is a second serving engine holding canaried tenants' fresh
	// generation; the router sends those tenants' canary hash-slice here
	// while srv keeps serving the control generation.
	canary *serving.Server

	gen  atomic.Int64 // generation currently being served
	down atomic.Bool  // crashed (by chaos or Kill) until revived

	mu            sync.Mutex
	pending       *serving.Snapshot // staged by prepare, swapped in by commit
	pendingCanary *serving.Snapshot
	// mainSnap/canarySnap are the last committed snapshots, retained so a
	// canary resolution can rebuild either side without refetching segments.
	mainSnap   *serving.Snapshot
	canarySnap *serving.Snapshot

	plan  faults.ReplicaPlanFunc
	delay time.Duration // simulated per-request service time
	gate  chan struct{} // bounded concurrency (nil = unlimited)

	// consecFails drives the router's health ordering: replicas failing
	// repeatedly are tried last until a success clears them.
	consecFails atomic.Int64
	served      atomic.Int64
	cancelled   atomic.Int64
	// inflight is the live queue depth the control plane routes and scales
	// on: requests currently inside get(), including gate waiters.
	inflight atomic.Int64
}

func newReplica(shard, idx int, opts Options) *Replica {
	rep := &Replica{
		shard:  shard,
		idx:    idx,
		srv:    serving.NewServerWithObs(obs.NewObserver()),
		canary: serving.NewServerWithObs(obs.NewObserver()),
		plan:   opts.Faults.ReplicaPlan(),
		delay:  opts.ServeDelay,
	}
	if opts.ReplicaConcurrency > 0 {
		rep.gate = make(chan struct{}, opts.ReplicaConcurrency)
	}
	return rep
}

// errReplicaDown is returned by operations on a crashed replica.
type errReplicaDown struct{ shard, idx int }

func (e errReplicaDown) Error() string {
	return fmt.Sprintf("store: replica %d/%d is down", e.shard, e.idx)
}

// Gen returns the generation the replica currently serves.
func (rep *Replica) Gen() int64 { return rep.gen.Load() }

// Down reports whether the replica is crashed.
func (rep *Replica) Down() bool { return rep.down.Load() }

// Kill crashes the replica: every operation fails until Revive.
func (rep *Replica) Kill() { rep.down.Store(true) }

// healthy reports whether the router should prefer this replica.
func (rep *Replica) healthy() bool { return rep.consecFails.Load() < 3 }

// Served and Cancelled report how many requests this replica answered and
// how many were abandoned mid-flight by context cancellation (hedge
// losers, Close).
func (rep *Replica) Served() int64    { return rep.served.Load() }
func (rep *Replica) Cancelled() int64 { return rep.cancelled.Load() }

// Inflight reports the replica's live queue depth — requests currently
// being answered (or waiting on the concurrency gate). The
// power-of-two-choices picker and the autoscaler both read it.
func (rep *Replica) Inflight() int64 { return rep.inflight.Load() }

func (rep *Replica) servePath(r catalog.RetailerID) string {
	return fmt.Sprintf("shard-%d/replica-%d/serve/%s", rep.shard, rep.idx, r)
}

func (rep *Replica) loadPath(gen int64) string {
	return fmt.Sprintf("shard-%d/replica-%d/load/gen-%d", rep.shard, rep.idx, gen)
}

// get answers one request from the replica's current generation. It honors
// ctx throughout — a hedge winner elsewhere cancels this replica's work —
// and consults the fault plan first, so chaos rules can crash, stall, or
// fail it.
func (rep *Replica) get(ctx context.Context, r catalog.RetailerID, uctx interactions.Context, k int, canaryArm bool) ([]serving.Recommendation, serving.Source, int64, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	if rep.down.Load() {
		rep.consecFails.Add(1)
		return nil, serving.SourceNone, 0, errReplicaDown{rep.shard, rep.idx}
	}
	if rep.plan != nil {
		switch fault, delay := rep.plan(rep.servePath(r)); fault {
		case faults.ReplicaCrash:
			rep.Kill()
			rep.consecFails.Add(1)
			return nil, serving.SourceNone, 0, errReplicaDown{rep.shard, rep.idx}
		case faults.ReplicaStall:
			// The replica is frozen, not dead: it answers after the stall
			// unless the request was already won elsewhere.
			if err := sleepCtx(ctx, delay); err != nil {
				rep.cancelled.Add(1)
				return nil, serving.SourceNone, 0, err
			}
		case faults.ReplicaFail:
			rep.consecFails.Add(1)
			return nil, serving.SourceNone, 0, fmt.Errorf("store: injected failure on replica %d/%d", rep.shard, rep.idx)
		}
	}
	if rep.gate != nil {
		select {
		case rep.gate <- struct{}{}:
			defer func() { <-rep.gate }()
		case <-ctx.Done():
			rep.cancelled.Add(1)
			return nil, serving.SourceNone, 0, ctx.Err()
		}
	}
	if rep.delay > 0 {
		if err := sleepCtx(ctx, rep.delay); err != nil {
			rep.cancelled.Add(1)
			return nil, serving.SourceNone, 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		rep.cancelled.Add(1)
		return nil, serving.SourceNone, 0, err
	}
	srv := rep.srv
	if canaryArm && rep.canaryServes(r) {
		srv = rep.canary
	}
	// The generation reported is the answering snapshot's own, never a
	// separate Version read: a commit landing mid-request must not label
	// generation N−1 content as N (the store caches answers under it).
	recs, src, gen := srv.RecommendVersioned(r, uctx, k)
	rep.consecFails.Store(0)
	rep.served.Add(1)
	return recs, src, gen, nil
}

// canaryServes reports whether this replica holds canary data for the
// retailer (routing falls back to the control engine otherwise, e.g. on a
// replica that missed the canary's publish).
func (rep *Replica) canaryServes(r catalog.RetailerID) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.canarySnap != nil && rep.canarySnap.Retailers[r] != nil
}

// prepare bulk-loads the generation's segments for the given manifest
// entries (already filtered to this replica's shard) and stages the result.
// The currently served generation is untouched; a failure leaves the
// replica serving exactly what it served before.
//
// Every segment is verified at load time — this is the only verification
// point on the serving side, so the per-request hot path stays zero-copy
// and checksum-free. A segment that fails verification is quarantined and
// repaired if possible (re-read, then a peer replica's in-memory copy);
// when repair fails, the replica keeps its own current copy of that
// tenant — gen N−1, marked degraded with phase "integrity" — so a corrupt
// blob degrades freshness, never correctness. res carries the store-level
// integrity machinery.
func (rep *Replica) prepare(gen int64, entries []ManifestEntry, res *segmentResolver) error {
	if rep.down.Load() {
		return errReplicaDown{rep.shard, rep.idx}
	}
	if rep.plan != nil {
		switch fault, delay := rep.plan(rep.loadPath(gen)); fault {
		case faults.ReplicaCrash:
			rep.Kill()
			return errReplicaDown{rep.shard, rep.idx}
		case faults.ReplicaStall:
			time.Sleep(delay)
		case faults.ReplicaFail:
			return fmt.Errorf("store: injected load failure on replica %d/%d", rep.shard, rep.idx)
		}
	}
	snap := &serving.Snapshot{
		Version:   gen,
		Retailers: make(map[catalog.RetailerID]*serving.RetailerRecs, len(entries)),
		Status:    make(map[catalog.RetailerID]*serving.TenantStatus, len(entries)),
	}
	for _, e := range entries {
		rr, integrity, err := rep.loadEntry(e, res, false)
		ts := e.status()
		if err != nil {
			if !integrity {
				return fmt.Errorf("store: replica %d/%d loading %s: %w", rep.shard, rep.idx, e.Retailer, err)
			}
			// Unrepairable right now: fall back to this replica's current
			// copy of the tenant (the previous committed generation) inside
			// the new snapshot. The tenant serves gen N−1 — stale, marked,
			// and correct — instead of poison or an outage.
			prevRR, prevTS := rep.prevCopy(e.Retailer)
			if prevRR == nil {
				return fmt.Errorf("store: replica %d/%d loading %s (no previous copy to fall back to): %w",
					rep.shard, rep.idx, e.Retailer, err)
			}
			res.st.integFallbacks.Add(1)
			rr, ts = prevRR, prevTS
			ts.Degraded = true
			ts.DegradedPhase = "integrity"
		}
		snap.Retailers[e.Retailer] = rr
		snap.Status[e.Retailer] = ts
	}
	// Stage the canary side too — always, even empty, so committing a
	// generation with no canaries clears any prior generation's.
	canary := &serving.Snapshot{
		Version:   gen,
		Retailers: map[catalog.RetailerID]*serving.RetailerRecs{},
		Status:    map[catalog.RetailerID]*serving.TenantStatus{},
	}
	for _, e := range entries {
		if e.CanarySegment == "" {
			continue
		}
		rr, integrity, err := rep.loadEntry(e, res, true)
		if err != nil {
			if !integrity {
				return fmt.Errorf("store: replica %d/%d loading canary %s: %w", rep.shard, rep.idx, e.Retailer, err)
			}
			// A corrupt, unrepairable canary segment is dropped: the
			// control arm serves the whole population (the incident is
			// already counted and the path quarantined).
			continue
		}
		canary.Retailers[e.Retailer] = rr
		canary.Status[e.Retailer] = &serving.TenantStatus{RecsVersion: e.CanaryVersion}
	}
	rep.mu.Lock()
	rep.pending = snap
	rep.pendingCanary = canary
	rep.mu.Unlock()
	return nil
}

// loadEntry fetches one manifest entry's segment (main or canary side)
// with verification. With a resolver, detection and the escalating repair
// ladder run here: verified re-reads first (inside fetchVerified), then a
// healthy peer replica's in-memory copy, which also heals the file on
// shared storage for every future reader.
func (rep *Replica) loadEntry(e ManifestEntry, res *segmentResolver, canary bool) (*serving.RetailerRecs, bool, error) {
	path := e.Segment
	if canary {
		path = e.CanarySegment
	}
	rr, integrity, err := res.st.fetchVerified(path)
	if err == nil {
		return rr, false, nil
	}
	if !integrity {
		return nil, false, err
	}
	if data := res.peerBytes(e, rep, canary); data != nil {
		if rr, derr := DecodeSegment(data); derr == nil {
			res.healFile(path, data)
			return rr, true, nil
		}
	}
	return nil, true, err
}

// segmentBytes re-encodes this replica's committed in-memory copy of one
// manifest entry's segment, or nil when the replica does not hold exactly
// the referenced version. This is the redundancy the repair path draws
// on: for flat segments the encoding is the original blob bytes.
func (rep *Replica) segmentBytes(e ManifestEntry, canary bool) []byte {
	r, version := e.Retailer, e.RecsVersion
	rep.mu.Lock()
	snap := rep.mainSnap
	if canary {
		snap = rep.canarySnap
		version = e.CanaryVersion
	}
	rep.mu.Unlock()
	if snap == nil {
		return nil
	}
	rr, ts := snap.Retailers[r], snap.Status[r]
	if rr == nil || ts == nil || ts.RecsVersion != version {
		return nil
	}
	return EncodeSegment(rr)
}

// prevCopy returns this replica's committed copy of one tenant (the
// generation it currently serves) plus a copy of its status — the
// fallback data for a tenant whose fresh segment is unrepairable.
func (rep *Replica) prevCopy(r catalog.RetailerID) (*serving.RetailerRecs, *serving.TenantStatus) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.mainSnap == nil {
		return nil, nil
	}
	rr := rep.mainSnap.Retailers[r]
	if rr == nil {
		return nil, nil
	}
	ts := serving.TenantStatus{}
	if s := rep.mainSnap.Status[r]; s != nil {
		ts = *s
	}
	return rr, &ts
}

// commit atomically swaps the staged generation in. Committing without a
// staged snapshot is a no-op (false).
func (rep *Replica) commit(gen int64) bool {
	rep.mu.Lock()
	snap, canary := rep.pending, rep.pendingCanary
	rep.pending, rep.pendingCanary = nil, nil
	rep.mu.Unlock()
	if snap == nil || snap.Version != gen {
		return false
	}
	rep.srv.Publish(snap)
	if canary != nil {
		rep.canary.Publish(canary)
	}
	rep.mu.Lock()
	rep.mainSnap = snap
	if canary != nil {
		rep.canarySnap = canary
	}
	rep.mu.Unlock()
	rep.gen.Store(gen)
	return true
}

// abort drops any staged snapshot.
func (rep *Replica) abort() {
	rep.mu.Lock()
	rep.pending = nil
	rep.pendingCanary = nil
	rep.mu.Unlock()
}

// resolveCanary ends one tenant's canary on this replica: on promote the
// canary data becomes the tenant's main serving data; either way the
// tenant leaves the canary engine, so its whole population converges on
// one generation.
func (rep *Replica) resolveCanary(r catalog.RetailerID, promote bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.canarySnap == nil || rep.canarySnap.Retailers[r] == nil {
		return
	}
	if promote && rep.mainSnap != nil {
		main := copySnapshot(rep.mainSnap)
		main.Retailers[r] = rep.canarySnap.Retailers[r]
		st := serving.TenantStatus{}
		if cst := rep.canarySnap.Status[r]; cst != nil {
			st = *cst
		}
		main.Status[r] = &st
		rep.srv.Publish(main)
		rep.mainSnap = main
	}
	can := copySnapshot(rep.canarySnap)
	delete(can.Retailers, r)
	delete(can.Status, r)
	rep.canary.Publish(can)
	rep.canarySnap = can
}

// copySnapshot shallow-copies a snapshot's maps so a canary resolution can
// republish a mutated view without racing readers of the original.
func copySnapshot(s *serving.Snapshot) *serving.Snapshot {
	out := &serving.Snapshot{
		Version:   s.Version,
		Retailers: make(map[catalog.RetailerID]*serving.RetailerRecs, len(s.Retailers)),
		Status:    make(map[catalog.RetailerID]*serving.TenantStatus, len(s.Status)),
	}
	for k, v := range s.Retailers {
		out.Retailers[k] = v
	}
	for k, v := range s.Status {
		out.Status[k] = v
	}
	return out
}

// sleepCtx sleeps for d or until ctx is cancelled, returning ctx's error
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
