// Package serving implements Sigmund's serving system: materialized
// recommendations loaded into memory and swapped atomically in batch after
// each inference run (Section V: the serving infrastructure "can now be
// optimized for batch-updates every time we have the inference job
// complete"), answering low-latency requests that blend the per-item
// recommendation lists of the user's recent context.
package serving

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sigmund/internal/catalog"
	"sigmund/internal/core/inference"
	"sigmund/internal/interactions"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/segment"
)

// RetailerRecs is one retailer's materialized recommendation data, in one
// of two representations:
//
//   - map-backed: Recs/TopSellers hold heap values. The pipeline builds
//     snapshots this way from inference's output; nothing on disk
//     decodes into it.
//   - flat-backed: Flat is a zero-copy view over an SSG2 segment's bytes
//     (the only on-disk encoding); Recs is nil and lookups read the
//     mmap-shaped slice directly. Store replicas serve this form — no
//     per-tenant map is ever rebuilt.
//
// Exactly one representation is populated. The blend path handles both;
// everything else goes through NumItems and the top-seller accessors.
type RetailerRecs struct {
	// Recs maps a query item to its two ranked lists (map-backed form).
	Recs map[catalog.ItemID]inference.ItemRecs
	// TopSellers is the popularity-ordered fallback for empty/unknown
	// contexts (new users with no history at all; map-backed form).
	TopSellers []catalog.ItemID
	// Flat is the zero-copy SSG2 segment view (flat-backed form).
	Flat *segment.Flat
}

// NumItems returns how many query items the retailer's data indexes,
// regardless of representation.
func (rr *RetailerRecs) NumItems() int {
	if rr.Flat != nil {
		return rr.Flat.NumItems()
	}
	return len(rr.Recs)
}

func (rr *RetailerRecs) numTopSellers() int {
	if rr.Flat != nil {
		return rr.Flat.NumTopSellers()
	}
	return len(rr.TopSellers)
}

func (rr *RetailerRecs) topSeller(i int) catalog.ItemID {
	if rr.Flat != nil {
		return rr.Flat.TopSeller(i)
	}
	return rr.TopSellers[i]
}

// TenantStatus describes one retailer's health within a snapshot
// generation: whether its daily cycle degraded, whether it is quarantined,
// and which generation its recommendations were actually materialized in
// (older than the snapshot's own version when they were carried forward).
type TenantStatus struct {
	// Degraded marks a retailer whose pipeline cycle failed this
	// generation; its recommendations are carried forward from the last
	// good generation (stale-but-serving).
	Degraded bool
	// Quarantined marks a retailer the pipeline has quarantined after
	// repeated failures.
	Quarantined bool
	// Canary marks a retailer whose fresh recommendations the guard sent
	// to a live canary: the sharded store routes only a deterministic
	// hash-slice of the tenant's requests to them while the rest keep
	// serving the previous generation. The single-node server ignores
	// the flag — it has no per-request routing.
	Canary bool
	// CanaryFraction is the slice of requests routed to the canary arm.
	CanaryFraction float64
	// DegradedPhase is the pipeline phase that failed ("staging",
	// "train", "infer", "quarantine"); empty for healthy tenants.
	DegradedPhase string
	// RecsVersion is the snapshot version in which this retailer's
	// recommendations were materialized. Equal to the snapshot's Version
	// for fresh tenants; older for carried-forward ones.
	RecsVersion int64
}

// Snapshot is an immutable generation of the whole store. Requests read
// whichever snapshot was current when they arrived; Publish swaps
// generations atomically.
type Snapshot struct {
	Version   int64
	Retailers map[catalog.RetailerID]*RetailerRecs
	// Status carries per-retailer health metadata alongside the recs.
	// Entries may be absent for hand-built snapshots; Publish fills them.
	Status map[catalog.RetailerID]*TenantStatus
	// Rolling marks a partial-fleet publish (the continuous scheduler
	// refreshing one tenant): retailers absent from this snapshot carry
	// forward from the previous generation instead of dropping out of
	// service. The daily pipeline publishes whole-fleet snapshots with
	// Rolling false.
	Rolling bool
}

// MarkDegraded flags a retailer as degraded in this snapshot. Publish uses
// the mark to carry the retailer's previous recommendations forward
// (stale-but-serving) instead of dropping it from service.
func (sn *Snapshot) MarkDegraded(r catalog.RetailerID, phase string, quarantined bool) {
	if sn.Status == nil {
		sn.Status = map[catalog.RetailerID]*TenantStatus{}
	}
	sn.Status[r] = &TenantStatus{
		Degraded:      true,
		Quarantined:   quarantined,
		DegradedPhase: phase,
		RecsVersion:   sn.Version,
	}
}

// Server answers recommendation requests from the current snapshot. The
// zero value is not usable; call NewServer.
type Server struct {
	snap atomic.Pointer[Snapshot]

	requests    atomic.Int64
	fallback    atomic.Int64
	misses      atomic.Int64
	staleServes atomic.Int64

	// jobCounters accumulates MapReduce counters across every pipeline job
	// that fed this server — exposed on /statz so operators can see worker
	// preemptions, lease expiries, and speculative execution fleet-wide.
	jobMu       sync.Mutex
	jobCounters mapreduce.Counters

	// obs is the observability surface /metrics and /tracez expose; the
	// request counters above remain the /statz-compatible view while the
	// registry carries the same signals fleet-wide.
	obs *obs.Observer
	om  servingMetrics

	// resume is the last completed day's crash-recovery metadata, set by
	// the pipeline when day journaling is on; exposed as the /statz
	// "resume" block.
	resume atomic.Pointer[ResumeInfo]

	// guard is the last completed day's quality-firewall summary, set by
	// the pipeline when the guard is on; exposed as the /statz "guard"
	// block.
	guard atomic.Pointer[GuardInfo]

	// freshness is the fleet's latest per-tier staleness summary, set by
	// whichever scheduling path published (the daily loop or the
	// continuous scheduler); exposed as the /statz "freshness" block.
	freshness atomic.Pointer[FreshnessInfo]
}

// ResumeInfo is one day's crash-recovery metadata: whether the day
// resumed from a durable journal, and how much committed work the resume
// reused instead of re-executing.
type ResumeInfo struct {
	// Day is the pipeline day this information describes.
	Day int `json:"day"`
	// Resumed is true when the day continued from a journal left by a
	// crashed coordinator rather than starting fresh.
	Resumed bool `json:"resumed"`
	// RecordsReplayed is how many journal records the resume replayed.
	RecordsReplayed int `json:"records_replayed"`
	// CellsSkipped counts training cells whose committed outputs were
	// reused instead of re-executed.
	CellsSkipped int `json:"cells_skipped"`
	// TenantsReplayed counts tenants whose staged plan was reused.
	TenantsReplayed int `json:"tenants_replayed"`
	// JournalRecords is the journal's total record count after the day
	// completed.
	JournalRecords int `json:"journal_records"`
}

// GuardInfo is one day's model-quality-firewall summary: how many
// candidate generations were evaluated and what the guard decided. Set by
// the pipeline after publish; exposed as the /statz "guard" block.
type GuardInfo struct {
	// Day is the pipeline day this information describes.
	Day int `json:"day"`
	// Evaluated counts tenants whose candidate generation the guard
	// examined.
	Evaluated int `json:"evaluated"`
	// Passed counts candidates published without restriction.
	Passed int `json:"passed"`
	// Vetoed lists tenants whose candidate was refused (they carry
	// forward the previous generation).
	Vetoed []string `json:"vetoed,omitempty"`
	// Canaried lists tenants publishing behind a live canary slice.
	Canaried []string `json:"canaried,omitempty"`
	// VetoReasons counts vetoes by the gate that tripped.
	VetoReasons map[string]int `json:"veto_reasons,omitempty"`
}

// TierFreshness is one freshness tier's staleness summary: how far past
// each cycle's due time its tenants' fresh data became servable.
type TierFreshness struct {
	// Tenants in this tier.
	Tenants int `json:"tenants"`
	// Publishes completed for this tier.
	Publishes int `json:"publishes"`
	// MeanStalenessSeconds / P99StalenessSeconds / MaxStalenessSeconds
	// summarize publish staleness (virtual seconds under the continuous
	// scheduler, wall seconds under the daily loop).
	MeanStalenessSeconds float64 `json:"mean_staleness_seconds"`
	P99StalenessSeconds  float64 `json:"p99_staleness_seconds"`
	MaxStalenessSeconds  float64 `json:"max_staleness_seconds"`
	// MaxDispatchWaitSeconds is the longest a job in this tier sat ready
	// in the queue before dispatch (continuous scheduler only).
	MaxDispatchWaitSeconds float64 `json:"max_dispatch_wait_seconds,omitempty"`
}

// FreshnessInfo is the fleet's per-tier data-freshness summary, set by
// whichever scheduling path drives publishes; exposed as the /statz
// "freshness" block.
type FreshnessInfo struct {
	// Path names the producer: "sched" (continuous scheduler) or "daily"
	// (the legacy synchronized loop, which is all one implicit daily
	// tier).
	Path string `json:"path"`
	// VirtualHours is the scheduler's elapsed virtual time (0 on the
	// daily path).
	VirtualHours float64 `json:"virtual_hours,omitempty"`
	// Tiers summarizes staleness per freshness tier.
	Tiers map[string]TierFreshness `json:"tiers"`
}

// IntegrityInfo is the store's storage-integrity summary: what the
// scrubber and the verified load/publish paths have detected and healed.
// Exposed as the /statz "integrity" block.
type IntegrityInfo struct {
	// Scrubbed counts blobs whose integrity a scrub pass verified.
	Scrubbed int64 `json:"scrubbed"`
	// Corrupt counts detected corruption incidents: footer or structural
	// verification failures, and referenced blobs found missing.
	Corrupt int64 `json:"corrupt"`
	// Repaired counts incidents healed — by re-read, peer
	// re-replication, or rewrite.
	Repaired int64 `json:"repaired"`
	// Fallbacks counts tenant loads that served their previous
	// generation because the fresh segment was unrepairable.
	Fallbacks int64 `json:"integrity_fallbacks"`
	// OrphansGCed counts unreferenced blobs the scrubber deleted.
	OrphansGCed int64 `json:"orphans_gced"`
	// ScrubPasses counts completed scrub passes.
	ScrubPasses int64 `json:"scrub_passes"`
	// Quarantined lists blob paths currently detected-corrupt and not
	// yet repaired.
	Quarantined []string `json:"quarantined,omitempty"`
}

// servingMetrics are the registry handles the server reports through
// (nil no-ops when the observer carries no registry).
type servingMetrics struct {
	requests    *obs.Counter
	fallbacks   *obs.Counter
	misses      *obs.Counter
	staleServes *obs.Counter
	publishes   *obs.Counter
	version     *obs.Gauge
	tenants     *obs.Gauge
	degraded    *obs.Gauge
	quarantined *obs.Gauge
}

func newServingMetrics(reg *obs.Registry) servingMetrics {
	return servingMetrics{
		requests:    reg.Counter("sigmund_serving_requests_total", "Recommendation requests served."),
		fallbacks:   reg.Counter("sigmund_serving_fallbacks_total", "Requests answered from the top-sellers fallback."),
		misses:      reg.Counter("sigmund_serving_misses_total", "Requests with nothing to return (unknown retailer or empty store)."),
		staleServes: reg.Counter("sigmund_serving_stale_serves_total", "Requests answered from a degraded tenant's carried-forward recommendations."),
		publishes:   reg.Counter("sigmund_serving_snapshot_publishes_total", "Snapshot generations published."),
		version:     reg.Gauge("sigmund_serving_snapshot_version", "Current serving snapshot version."),
		tenants:     reg.Gauge("sigmund_serving_tenants", "Retailers in the current snapshot."),
		degraded:    reg.Gauge("sigmund_serving_tenants_degraded", "Retailers serving stale after a degraded cycle."),
		quarantined: reg.Gauge("sigmund_serving_tenants_quarantined", "Retailers currently quarantined."),
	}
}

// NewServer returns a server with an empty snapshot and a private
// observability surface.
func NewServer() *Server {
	return NewServerWithObs(obs.NewObserver())
}

// NewServerWithObs returns a server reporting into the given observer —
// the daily pipeline and the serving layer share one, so /metrics and
// /tracez cover the whole stack. A nil observer disables /metrics and
// /tracez but keeps all /statz counters working.
func NewServerWithObs(o *obs.Observer) *Server {
	s := &Server{obs: o, om: newServingMetrics(o.Reg())}
	s.snap.Store(&Snapshot{
		Retailers: map[catalog.RetailerID]*RetailerRecs{},
		Status:    map[catalog.RetailerID]*TenantStatus{},
	})
	return s
}

// Observer returns the server's observability surface (may be nil).
func (s *Server) Observer() *obs.Observer { return s.obs }

// SetResumeInfo records the last completed day's crash-recovery metadata
// (the pipeline calls this when day journaling is on).
func (s *Server) SetResumeInfo(info ResumeInfo) {
	s.resume.Store(&info)
}

// ResumeInfo returns the last completed day's crash-recovery metadata.
func (s *Server) ResumeInfo() (ResumeInfo, bool) {
	p := s.resume.Load()
	if p == nil {
		return ResumeInfo{}, false
	}
	return *p, true
}

// SetGuardInfo records the last completed day's quality-firewall summary
// (the pipeline calls this when the guard is on).
func (s *Server) SetGuardInfo(info GuardInfo) {
	s.guard.Store(&info)
}

// GuardInfo returns the last completed day's quality-firewall summary.
func (s *Server) GuardInfo() (GuardInfo, bool) {
	p := s.guard.Load()
	if p == nil {
		return GuardInfo{}, false
	}
	return *p, true
}

// SetFreshnessInfo records the fleet's latest per-tier staleness summary
// (either scheduling path calls this after publishing).
func (s *Server) SetFreshnessInfo(info FreshnessInfo) {
	s.freshness.Store(&info)
}

// FreshnessInfo returns the fleet's latest per-tier staleness summary.
func (s *Server) FreshnessInfo() (FreshnessInfo, bool) {
	p := s.freshness.Load()
	if p == nil {
		return FreshnessInfo{}, false
	}
	return *p, true
}

// StatzBlocks implements StatzExtension: a "resume" block appears once
// the pipeline has completed a journaled day, a "guard" block once the
// quality firewall has run, a "freshness" block once either scheduling
// path has published.
func (s *Server) StatzBlocks() map[string]any {
	blocks := map[string]any{}
	if info, ok := s.ResumeInfo(); ok {
		blocks["resume"] = info
	}
	if info, ok := s.GuardInfo(); ok {
		blocks["guard"] = info
	}
	if info, ok := s.FreshnessInfo(); ok {
		blocks["freshness"] = info
	}
	return blocks
}

// Publish atomically replaces the serving snapshot — the batch update at
// the end of the daily pipeline. In-flight requests keep reading the old
// generation.
//
// Graceful degradation happens here: a retailer marked degraded (see
// Snapshot.MarkDegraded) that has no fresh recommendations inherits the
// previous generation's RetailerRecs — including its original
// materialization version, so staleness is observable — rather than
// disappearing from service. RetailerRecs are immutable once published, so
// sharing them across generations is safe.
func (s *Server) Publish(snap *Snapshot) {
	if snap.Retailers == nil {
		snap.Retailers = map[catalog.RetailerID]*RetailerRecs{}
	}
	if snap.Status == nil {
		snap.Status = map[catalog.RetailerID]*TenantStatus{}
	}
	if snap.Rolling {
		// Rolling publish: every retailer the snapshot doesn't mention
		// keeps serving its previous generation — recs pointer shared
		// (immutable once published), status copied so later publishes
		// can't mutate history.
		if prev := s.snap.Load(); prev != nil {
			for r, rr := range prev.Retailers {
				if snap.Retailers[r] != nil || snap.Status[r] != nil {
					continue
				}
				snap.Retailers[r] = rr
				if pst := prev.Status[r]; pst != nil {
					cp := *pst
					snap.Status[r] = &cp
				} else {
					snap.Status[r] = &TenantStatus{RecsVersion: prev.Version}
				}
			}
		}
	}
	for r := range snap.Retailers {
		if snap.Status[r] == nil {
			snap.Status[r] = &TenantStatus{RecsVersion: snap.Version}
		}
	}
	if prev := s.snap.Load(); prev != nil {
		for r, st := range snap.Status {
			if !st.Degraded || snap.Retailers[r] != nil {
				continue
			}
			old := prev.Retailers[r]
			if old == nil {
				continue
			}
			snap.Retailers[r] = old
			if pst := prev.Status[r]; pst != nil {
				st.RecsVersion = pst.RecsVersion
			} else {
				st.RecsVersion = prev.Version
			}
		}
	}
	s.snap.Store(snap)

	s.om.publishes.Inc()
	s.om.version.Set(float64(snap.Version))
	s.om.tenants.Set(float64(len(snap.Retailers)))
	var degraded, quarantined int
	for _, st := range snap.Status {
		if st.Degraded {
			degraded++
		}
		if st.Quarantined {
			quarantined++
		}
	}
	s.om.degraded.Set(float64(degraded))
	s.om.quarantined.Set(float64(quarantined))
}

// Snapshot returns the current generation (for inspection; treat as
// read-only).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Version returns the current snapshot's version.
func (s *Server) Version() int64 { return s.snap.Load().Version }

// Stats reports request counters: total requests, fallback answers
// (top-sellers), and misses (unknown retailer / nothing to return).
func (s *Server) Stats() (requests, fallbacks, misses int64) {
	return s.requests.Load(), s.fallback.Load(), s.misses.Load()
}

// StaleServes reports how many requests were answered from carried-forward
// (stale) recommendations of a degraded tenant.
func (s *Server) StaleServes() int64 { return s.staleServes.Load() }

// AddJobCounters rolls one pipeline job's (or day's) MapReduce counters
// into the server's running totals.
func (s *Server) AddJobCounters(c mapreduce.Counters) {
	s.jobMu.Lock()
	s.jobCounters.Add(c)
	s.jobMu.Unlock()
}

// JobCounters returns the accumulated MapReduce counters.
func (s *Server) JobCounters() mapreduce.Counters {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobCounters
}

// TenantStatuses returns a copy of the current snapshot's per-retailer
// health metadata.
func (s *Server) TenantStatuses() map[catalog.RetailerID]TenantStatus {
	snap := s.snap.Load()
	out := make(map[catalog.RetailerID]TenantStatus, len(snap.Status))
	for r, st := range snap.Status {
		out[r] = *st
	}
	return out
}

// SnapshotAge returns how many generations a retailer's served
// recommendations lag the current snapshot (0 = fresh, -1 = unknown
// retailer).
func (s *Server) SnapshotAge(r catalog.RetailerID) int64 {
	snap := s.snap.Load()
	st := snap.Status[r]
	if st == nil {
		if snap.Retailers[r] == nil {
			return -1
		}
		return 0
	}
	return snap.Version - st.RecsVersion
}

// Recommendation is one served item.
type Recommendation struct {
	Item  catalog.ItemID `json:"item"`
	Score float64        `json:"score"`
}

// Source identifies which rung of the serving fallback chain produced an
// answer: the materialized model lists, the top-sellers popularity
// fallback, or nothing.
type Source string

const (
	SourceModel      Source = "model"
	SourceTopSellers Source = "top-sellers"
	SourceNone       Source = "none"
)

// Recommend returns up to k recommendations for a user context at the
// given retailer. The context's items vote with their materialized lists —
// purchase-surface lists for cart/conversion actions, view-surface lists
// otherwise — with recency-decayed weights; items already in the context
// are never recommended back.
func (s *Server) Recommend(r catalog.RetailerID, ctx interactions.Context, k int) []Recommendation {
	recs, _ := s.RecommendWithSource(r, ctx, k)
	return recs
}

// blendScratch is the pooled per-request working set of the blend: the
// vote accumulator and the pre-sort candidate buffer. Pooling it keeps the
// hot path's only per-request allocation the result slice that escapes to
// the client.
type blendScratch struct {
	scores map[catalog.ItemID]float64
	cand   []Recommendation
}

var blendPool = sync.Pool{New: func() any {
	return &blendScratch{scores: make(map[catalog.ItemID]float64, 64)}
}}

// ctxContains reports whether an item appears in the (≤ context-length)
// user context; a linear scan beats a per-request membership map.
func ctxContains(ctx interactions.Context, it catalog.ItemID) bool {
	for i := range ctx {
		if ctx[i].Item == it {
			return true
		}
	}
	return false
}

// RecommendWithSource is Recommend plus the fallback rung that answered:
// the materialized model lists when any context item has one, then the
// co-occurrence-seeded top-sellers list, then nothing. Degraded tenants are
// served from their carried-forward snapshot transparently (counted in
// StaleServes).
func (s *Server) RecommendWithSource(r catalog.RetailerID, ctx interactions.Context, k int) ([]Recommendation, Source) {
	return s.recommend(s.snap.Load(), r, ctx, k)
}

// RecommendVersioned is RecommendWithSource plus the version of the
// snapshot that answered. The snapshot is loaded once, so the version
// labels exactly the content returned even when a Publish lands
// mid-request (a separate Version call afterwards could report the newer
// generation for the older content).
func (s *Server) RecommendVersioned(r catalog.RetailerID, ctx interactions.Context, k int) ([]Recommendation, Source, int64) {
	snap := s.snap.Load()
	recs, src := s.recommend(snap, r, ctx, k)
	return recs, src, snap.Version
}

// recommend answers one request from snap.
func (s *Server) recommend(snap *Snapshot, r catalog.RetailerID, ctx interactions.Context, k int) ([]Recommendation, Source) {
	s.requests.Add(1)
	s.om.requests.Inc()
	if k <= 0 {
		k = 10
	}
	rr := snap.Retailers[r]
	if rr == nil {
		s.misses.Add(1)
		s.om.misses.Inc()
		return nil, SourceNone
	}
	if st := snap.Status[r]; st != nil && st.Degraded {
		s.staleServes.Add(1)
		s.om.staleServes.Inc()
	}
	if len(ctx) > interactions.DefaultContextLength {
		ctx = ctx.Truncate(interactions.DefaultContextLength)
	}

	sc := blendPool.Get().(*blendScratch)
	scores := sc.scores
	lateFunnel := IsLateFunnel(ctx)
	const decay = 0.8
	w := 1.0
	for j := len(ctx) - 1; j >= 0; j-- {
		a := ctx[j]
		if rr.Flat != nil {
			if ls, ok := rr.Flat.Lookup(a.Item); ok {
				list := ls.View
				if lateFunnel && ls.LateFunnel.Len() > 0 {
					// Deep-funnel users get the facet-constrained surface
					// (Section III-D1's late-funnel tightening).
					list = ls.LateFunnel
				}
				if a.Type >= interactions.Cart {
					list = ls.Purchase
				}
				n := list.Len()
				for pos := 0; pos < n; pos++ {
					it := list.Item(pos)
					if ctxContains(ctx, it) {
						continue
					}
					// Positional vote: earlier slots in a list count more.
					scores[it] += w * float64(n-pos)
				}
			}
		} else if ir, ok := rr.Recs[a.Item]; ok {
			list := ir.View
			if lateFunnel && len(ir.LateFunnel) > 0 {
				list = ir.LateFunnel
			}
			if a.Type >= interactions.Cart {
				list = ir.Purchase
			}
			for pos, rec := range list {
				if ctxContains(ctx, rec.Item) {
					continue
				}
				scores[rec.Item] += w * float64(len(list)-pos)
			}
		}
		w *= decay
	}

	if len(scores) == 0 {
		blendPool.Put(sc)
		s.fallback.Add(1)
		s.om.fallbacks.Inc()
		out := make([]Recommendation, 0, k)
		for i, n := 0, rr.numTopSellers(); i < n; i++ {
			it := rr.topSeller(i)
			if ctxContains(ctx, it) {
				continue
			}
			out = append(out, Recommendation{Item: it})
			if len(out) == k {
				break
			}
		}
		if len(out) == 0 {
			s.misses.Add(1)
			s.om.misses.Inc()
			return out, SourceNone
		}
		return out, SourceTopSellers
	}

	cand := sc.cand[:0]
	for it, score := range scores {
		cand = append(cand, Recommendation{Item: it, Score: score})
	}
	slices.SortFunc(cand, func(a, b Recommendation) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Item < b.Item:
			return -1
		case a.Item > b.Item:
			return 1
		}
		return 0
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	out := make([]Recommendation, len(cand))
	copy(out, cand)
	sc.cand = cand[:0]
	clear(sc.scores)
	blendPool.Put(sc)
	return out, SourceModel
}

// IsLateFunnel classifies a context as deep in the purchase funnel: the
// user's recent actions show focused intent — a search or cart among the
// last three actions, with repeated attention to the same item. Early
// browsers get the broad view surface; late-funnel users get candidates
// "constrained to have the same item facets" (Section III-D1).
func IsLateFunnel(ctx interactions.Context) bool {
	if len(ctx) < 2 {
		return false
	}
	tail := ctx
	if len(tail) > 3 {
		tail = tail[len(tail)-3:]
	}
	intent := false
	for _, a := range tail {
		if a.Type >= interactions.Search {
			intent = true
			break
		}
	}
	if !intent {
		return false
	}
	// Repeated attention: some item appears twice in the recent context.
	// The window is at most five actions, so a quadratic scan is cheaper
	// than a per-request map.
	recent := ctx
	if len(recent) > 5 {
		recent = recent[len(recent)-5:]
	}
	for i := range recent {
		for j := i + 1; j < len(recent); j++ {
			if recent[i].Item == recent[j].Item {
				return true
			}
		}
	}
	return false
}

// BuildSnapshot assembles a snapshot from per-retailer materialized
// outputs and popularity stats.
func BuildSnapshot(version int64, per map[catalog.RetailerID][]inference.ItemRecs, pop map[catalog.RetailerID][]catalog.ItemID) *Snapshot {
	snap := &Snapshot{
		Version:   version,
		Retailers: map[catalog.RetailerID]*RetailerRecs{},
		Status:    map[catalog.RetailerID]*TenantStatus{},
	}
	for r, items := range per {
		rr := &RetailerRecs{Recs: make(map[catalog.ItemID]inference.ItemRecs, len(items))}
		for _, ir := range items {
			rr.Recs[ir.Item] = ir
		}
		rr.TopSellers = pop[r]
		snap.Retailers[r] = rr
		snap.Status[r] = &TenantStatus{RecsVersion: version}
	}
	return snap
}

// String describes the snapshot for logs.
func (sn *Snapshot) String() string {
	items, degraded := 0, 0
	for _, rr := range sn.Retailers {
		items += rr.NumItems()
	}
	for _, st := range sn.Status {
		if st.Degraded {
			degraded++
		}
	}
	return fmt.Sprintf("snapshot{v%d retailers=%d items=%d degraded=%d}", sn.Version, len(sn.Retailers), items, degraded)
}
