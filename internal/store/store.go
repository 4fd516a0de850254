package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/interactions"
	"sigmund/internal/linalg"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/retry"
	"sigmund/internal/serving"
)

// Options configures a Store. The zero value takes Defaulted's settings.
type Options struct {
	// Shards is the number of consistent-hash shards; Replicas is the
	// number of copies of each shard's data.
	Shards   int
	Replicas int
	// VirtualNodes per shard on the hash ring (more = smoother balance).
	VirtualNodes int

	// HedgeAfter is the fixed latency threshold after which the router
	// issues a hedged read to a second replica. 0 selects the adaptive
	// threshold: the HedgePercentile of a sliding window of observed
	// request latencies, floored at HedgeMin.
	HedgeAfter      time.Duration
	HedgePercentile float64
	HedgeMin        time.Duration

	// MaxInflight bounds concurrently running requests; beyond it the
	// router sheds instead of queueing (counted, fast-failing).
	MaxInflight int

	// AdmitQPS caps the fleet-wide admitted request rate with a token
	// bucket whose budget is split into equal fair shares across active
	// tenants (see admission.go): a tenant under its share is never
	// rejected because a neighbor floods, and a tenant past its share may
	// only borrow genuinely idle capacity. 0 disables admission control.
	// AdmitBurst is the bucket's burst capacity (0 = a quarter second of
	// budget, floored at 16).
	AdmitQPS   float64
	AdmitBurst int

	// Autoscale starts the replica autoscaler: a controller goroutine
	// that grows hot shards and drains idle ones from per-shard queue
	// depth and the router's sliding tail latency, between MinReplicas
	// (0 = Replicas) and MaxReplicas (0 = 2*Replicas) per shard, with
	// hysteresis and per-action cooldown. ScaleInterval is the evaluation
	// cadence (0 = 100ms); ScaleUpQueue/ScaleDownQueue are the
	// per-replica queue depths marking a shard hot/idle (0 = 3 / 0.5);
	// ScaleLatency, when set, halves the hot threshold while the window's
	// tail latency exceeds it.
	Autoscale      bool
	MinReplicas    int
	MaxReplicas    int
	ScaleInterval  time.Duration
	ScaleUpQueue   float64
	ScaleDownQueue float64
	ScaleLatency   time.Duration
	// CacheSize is the hot-key LRU capacity (0 = default 1024, < 0
	// disables).
	CacheSize int

	// CanaryMinSamples is how many live requests each canary arm
	// (control and canary) must answer before the store compares them and
	// auto-promotes or auto-rolls-back a canaried tenant (0 = 32).
	CanaryMinSamples int

	// ServeDelay simulates per-request service time at a replica, and
	// ReplicaConcurrency bounds a replica's concurrent requests — together
	// they model single-machine capacity for load experiments (cmd/loadgen)
	// and keep the routed-vs-single comparison honest. Zero values mean
	// instantaneous, unbounded replicas.
	ServeDelay         time.Duration
	ReplicaConcurrency int

	// Faults optionally injects replica-scoped chaos (faults.OpReplica:
	// crash, stall, flake) into serves and bulk loads.
	Faults *faults.Injector
	// Retry is the backoff policy for segment and manifest writes during
	// publish (the shared filesystem can fail transiently).
	Retry retry.Policy
	// KeepGenerations retains this many generations of segment files for
	// replica catch-up; older unreferenced files are garbage-collected
	// after each publish.
	KeepGenerations int

	// ScrubInterval starts the background integrity scrubber at this
	// cadence: every pass re-verifies the blobs the committed manifest
	// references (segments, canary segments, the manifest itself), plus
	// guard baselines and checkpoints, repairs what it can from replica
	// memory, and GCs provably unreferenced orphans. 0 disables the loop;
	// ScrubOnce can still be called manually.
	ScrubInterval time.Duration

	// Obs is the observability surface (sigmund_store_* metrics). nil gets
	// a private observer.
	Obs *obs.Observer

	Seed uint64
}

// Defaulted fills zero fields.
func (o Options) Defaulted() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.HedgePercentile <= 0 || o.HedgePercentile >= 1 {
		o.HedgePercentile = 0.95
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 500 * time.Microsecond
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4096
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.CanaryMinSamples <= 0 {
		o.CanaryMinSamples = 32
	}
	if o.KeepGenerations <= 0 {
		o.KeepGenerations = 2
	}
	if o.MinReplicas <= 0 {
		o.MinReplicas = o.Replicas
	}
	if o.MaxReplicas <= 0 {
		o.MaxReplicas = 2 * o.Replicas
	}
	if o.ScaleInterval <= 0 {
		o.ScaleInterval = 100 * time.Millisecond
	}
	if o.ScaleUpQueue <= 0 {
		o.ScaleUpQueue = 3
	}
	if o.ScaleDownQueue <= 0 {
		o.ScaleDownQueue = 0.5
	}
	if o.Obs == nil {
		o.Obs = obs.NewObserver()
	}
	o.Retry = o.Retry.Defaulted()
	return o
}

// The store is a drop-in serving backend for the HTTP layer.
var (
	_ serving.Backend        = (*Store)(nil)
	_ serving.StatzExtension = (*Store)(nil)
)

// RejectError is a categorized refusal: the router turned a request away
// on purpose rather than failing to answer it. Reason distinguishes the
// control-plane stage that refused ("admission" vs "shed") so callers,
// metrics, and the HTTP layer can attribute rejects; it satisfies
// serving.RejectionError.
type RejectError struct {
	Reason string
	msg    string
}

func (e *RejectError) Error() string        { return e.msg }
func (e *RejectError) RejectReason() string { return e.Reason }

// ErrShed is returned when the router's in-flight budget is exhausted.
var ErrShed error = &RejectError{Reason: "shed", msg: "store: load shed (in-flight budget exhausted)"}

// ErrAdmission is returned when per-tenant admission control refuses a
// request: the tenant is past its fair share and the fleet has no idle
// capacity to lend.
var ErrAdmission error = &RejectError{Reason: "admission", msg: "store: rejected by per-tenant admission control"}

// ErrClosed is returned by requests after Close.
var ErrClosed = errors.New("store: closed")

// errNoReplicas is returned when a shard has no live replica at the
// committed generation.
var errNoReplicas = errors.New("store: no live replica for shard")

// shard groups one key range's replicas.
type shard struct {
	id int
	// gen is the shard's committed generation: the router only reads from
	// replicas at or past it, so a shard never serves a mix of generations
	// that includes anything older than its last commit.
	gen atomic.Int64
	rr  atomic.Uint64 // rotation cursor for replica selection

	mu       sync.RWMutex
	replicas []*Replica
}

// order returns the replicas eligible for a read — live and at (or past)
// the shard's committed generation — healthy ones first, rotated for
// balance, with power-of-two-choices promoting the less-loaded of two
// sampled healthy replicas to primary. Failover and hedging walk the rest
// in rotation order.
func (sh *shard) order(rng *cheapRNG) []*Replica {
	gen := sh.gen.Load()
	sh.mu.RLock()
	reps := sh.replicas
	n := len(reps)
	start := int(sh.rr.Add(1)) % n
	healthy := make([]*Replica, 0, n)
	var suspect []*Replica
	for i := 0; i < n; i++ {
		rep := reps[(start+i)%n]
		if rep.Down() || rep.Gen() < gen {
			continue
		}
		if rep.healthy() {
			healthy = append(healthy, rep)
		} else {
			suspect = append(suspect, rep)
		}
	}
	sh.mu.RUnlock()
	pickTwo(healthy, rng)
	return append(healthy, suspect...)
}

// pickLive is the fast path's allocation-free replica selection: the same
// rotation + power-of-two-choices policy as order(), but returning only
// the primary. It scans for the first two eligible healthy replicas and
// prefers the less loaded; with no healthy replica it settles for the
// first eligible suspect. Returns nil when no replica can serve.
func (sh *shard) pickLive() *Replica {
	gen := sh.gen.Load()
	sh.mu.RLock()
	reps := sh.replicas
	n := len(reps)
	if n == 0 {
		sh.mu.RUnlock()
		return nil
	}
	start := int(sh.rr.Add(1)) % n
	var first, second, suspect *Replica
	for i := 0; i < n && second == nil; i++ {
		rep := reps[(start+i)%n]
		if rep.Down() || rep.Gen() < gen {
			continue
		}
		if !rep.healthy() {
			if suspect == nil {
				suspect = rep
			}
			continue
		}
		if first == nil {
			first = rep
		} else {
			second = rep
		}
	}
	sh.mu.RUnlock()
	if first == nil {
		return suspect
	}
	// Power of two choices: prefer the less-loaded of the two sampled
	// healthy replicas (the rotation cursor supplies the randomness the
	// full path gets from the rng).
	if second != nil && second.Inflight() < first.Inflight() {
		return second
	}
	return first
}

// Store is the sharded, replicated serving store plus its front-end
// router. It implements the same serving surface as serving.Server
// (serving.Backend), so the HTTP handler, the service facade, and the
// pipeline's publish phase work against either interchangeably.
type Store struct {
	fs   *dfs.FS
	opts Options
	ring *Ring

	shards []*shard

	// fast marks a store whose replicas answer instantaneously (no fault
	// plan, no simulated service time, no concurrency gate): requests are
	// served inline on the caller's goroutine with no hedge machinery, and
	// the full fanout path is kept as the failover fallback. Chaos and
	// load-model configurations clear it, so hedging, stall racing, and
	// cancellation semantics are exercised exactly as before.
	fast bool

	// pubMu serializes publishes; stateMu guards the committed manifest.
	pubMu   sync.Mutex
	stateMu sync.RWMutex
	gen     int64
	man     *Manifest
	lastSeg map[catalog.RetailerID]ManifestEntry
	pubErr  error

	rootCtx  context.Context
	cancel   context.CancelFunc
	closed   atomic.Bool
	wg       sync.WaitGroup
	inflight atomic.Int64

	cache *lruCache
	lat   *latencyWindow

	// The request control plane: admission (per-tenant fair token
	// bucket), routing randomness (power-of-two-choices), and the replica
	// autoscaler. admit and scaler are nil when their stage is disabled.
	admit  *admitter
	rng    *cheapRNG
	scaler *autoscaler

	requests    atomic.Int64
	fallbacks   atomic.Int64
	misses      atomic.Int64
	staleServes atomic.Int64
	hedges      atomic.Int64
	hedgeWins   atomic.Int64
	failovers   atomic.Int64
	shed        atomic.Int64
	admRejects  atomic.Int64
	repFailures atomic.Int64
	brownCache  atomic.Int64
	brownStale  atomic.Int64
	scaleUps    atomic.Int64
	scaleDowns  atomic.Int64
	publishes   atomic.Int64
	rollbacks   atomic.Int64

	// Live-canary controller state and decision counters.
	canaries         canaryController
	canaryPromotions atomic.Int64
	canaryRollbacks  atomic.Int64
	canaryExpired    atomic.Int64

	jobMu       sync.Mutex
	jobCounters mapreduce.Counters

	// resume mirrors serving.Server's crash-recovery metadata for the
	// /statz "resume" block when the pipeline publishes through the store.
	resume atomic.Pointer[serving.ResumeInfo]
	// guardInfo mirrors the pipeline's quality-firewall summary for the
	// /statz "guard" block.
	guardInfo atomic.Pointer[serving.GuardInfo]
	// freshness mirrors the fleet's per-tier staleness summary for the
	// /statz "freshness" block.
	freshness atomic.Pointer[serving.FreshnessInfo]

	// Storage-integrity subsystem (integrity.go, scrub.go): the quarantine
	// set of blobs that failed verification and are awaiting repair, plus
	// detection/repair counters.
	integMu        sync.Mutex
	quarantined    map[string]string // blob path -> first failure observed
	integScrubbed  atomic.Int64
	integCorrupt   atomic.Int64
	integRepaired  atomic.Int64
	integFallbacks atomic.Int64
	orphansGCed    atomic.Int64
	scrubPasses    atomic.Int64

	m storeMetrics
}

// SetResumeInfo records the last completed day's crash-recovery metadata
// (the pipeline calls this when day journaling is on).
func (st *Store) SetResumeInfo(info serving.ResumeInfo) {
	st.resume.Store(&info)
}

// SetGuardInfo records the last completed day's quality-firewall summary
// (the pipeline calls this when the guard is on).
func (st *Store) SetGuardInfo(info serving.GuardInfo) {
	st.guardInfo.Store(&info)
}

// SetFreshnessInfo records the fleet's latest per-tier staleness summary
// (either scheduling path calls this after publishing).
func (st *Store) SetFreshnessInfo(info serving.FreshnessInfo) {
	st.freshness.Store(&info)
}

// storeMetrics are the sigmund_store_* registry handles. Shard indices are
// bounded and numeric, so — unlike tenant IDs — they are safe as labels.
type storeMetrics struct {
	requests  []*obs.Counter // per shard
	hedges    []*obs.Counter
	failovers []*obs.Counter
	healthy   []*obs.Gauge
	replicas  []*obs.Gauge

	hedgeWins  *obs.Counter
	cacheHits  *obs.Counter
	publishes  *obs.Counter
	rollbacks  *obs.Counter
	generation *obs.Gauge

	// Overload control plane: refusals by cause, admitted requests, the
	// brownout ladder's degraded serves, and autoscaler actions.
	rejectShed      *obs.Counter
	rejectAdmission *obs.Counter
	rejectReplica   *obs.Counter

	// Live-canary controller.
	canaryPromoted   *obs.Counter
	canaryRolledBack *obs.Counter
	canaryExpired    *obs.Counter
	canariesActive   *obs.Gauge
	admitted         *obs.Counter
	brownoutCache    *obs.Counter
	brownoutStale    *obs.Counter
	scaleUps         *obs.Counter
	scaleDowns       *obs.Counter

	// Storage-integrity subsystem.
	integScrubbed *obs.Counter
	integCorrupt  *obs.Counter
	integRepaired *obs.Counter

	requestSeconds *obs.Histogram
	publishSeconds *obs.Histogram
	loadSeconds    *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry, shards int) storeMetrics {
	m := storeMetrics{
		hedgeWins:  reg.Counter("sigmund_store_hedge_wins_total", "Hedged reads that answered before the primary."),
		cacheHits:  reg.Counter("sigmund_store_cache_hits_total", "Requests answered from the router's hot-key cache."),
		rejectShed: reg.Counter("sigmund_store_rejects_total", "Requests refused, by cause.", obs.L("reason", "shed")),
		rejectAdmission: reg.Counter("sigmund_store_rejects_total", "Requests refused, by cause.",
			obs.L("reason", "admission")),
		rejectReplica: reg.Counter("sigmund_store_rejects_total", "Requests refused, by cause.",
			obs.L("reason", "replica_failure")),
		admitted: reg.Counter("sigmund_store_admitted_total", "Requests past per-tenant admission control."),
		canaryPromoted: reg.Counter("sigmund_guard_canary_decisions_total",
			"Live-canary outcomes, by decision.", obs.L("outcome", "promoted")),
		canaryRolledBack: reg.Counter("sigmund_guard_canary_decisions_total",
			"Live-canary outcomes, by decision.", obs.L("outcome", "rolled_back")),
		canaryExpired: reg.Counter("sigmund_guard_canary_decisions_total",
			"Live-canary outcomes, by decision.", obs.L("outcome", "expired")),
		canariesActive: reg.Gauge("sigmund_guard_canaries_active",
			"Tenants currently serving behind a live canary slice."),
		brownoutCache: reg.Counter("sigmund_store_brownout_serves_total",
			"Overloaded requests rescued by the brownout ladder, by rung.", obs.L("stage", "cache")),
		brownoutStale: reg.Counter("sigmund_store_brownout_serves_total",
			"Overloaded requests rescued by the brownout ladder, by rung.", obs.L("stage", "stale")),
		scaleUps: reg.Counter("sigmund_store_autoscale_events_total",
			"Replica autoscaler actions, by direction.", obs.L("direction", "up")),
		scaleDowns: reg.Counter("sigmund_store_autoscale_events_total",
			"Replica autoscaler actions, by direction.", obs.L("direction", "down")),
		integScrubbed: reg.Counter("sigmund_integrity_scrubbed_total",
			"Blobs whose integrity the scrubber verified."),
		integCorrupt: reg.Counter("sigmund_integrity_corrupt_total",
			"Corruption incidents detected: footer or structural verification failures, and referenced blobs found missing."),
		integRepaired: reg.Counter("sigmund_integrity_repaired_total",
			"Corruption incidents repaired, by re-read, peer re-replication, or rewrite."),
		publishes:  reg.Counter("sigmund_store_publishes_total", "Generations published to the store.", obs.L("outcome", "committed")),
		rollbacks:  reg.Counter("sigmund_store_publishes_total", "Generations published to the store.", obs.L("outcome", "rolled_back")),
		generation: reg.Gauge("sigmund_store_generation", "Last committed store generation."),
		requestSeconds: reg.Histogram("sigmund_store_request_seconds",
			"End-to-end routed request latency.", obs.DurationBuckets()),
		publishSeconds: reg.Histogram("sigmund_store_publish_seconds",
			"Wall time of one generation publish (segments + loads + swap).", obs.DurationBuckets()),
		loadSeconds: reg.Histogram("sigmund_store_segment_load_seconds",
			"Wall time of one replica's bulk load of a generation.", obs.DurationBuckets()),
	}
	for s := 0; s < shards; s++ {
		l := obs.L("shard", strconv.Itoa(s))
		m.requests = append(m.requests, reg.Counter("sigmund_store_requests_total", "Routed requests, by shard.", l))
		m.hedges = append(m.hedges, reg.Counter("sigmund_store_hedges_total", "Hedged reads issued, by shard.", l))
		m.failovers = append(m.failovers, reg.Counter("sigmund_store_failovers_total", "Failover attempts after a replica error, by shard.", l))
		m.healthy = append(m.healthy, reg.Gauge("sigmund_store_replicas_healthy", "Live replicas at the committed generation, by shard.", l))
		m.replicas = append(m.replicas, reg.Gauge("sigmund_store_replicas", "Configured replicas, by shard.", l))
	}
	return m
}

// New builds a store over the shared filesystem: Shards × Replicas empty
// replicas behind a consistent-hash router. Publish loads them.
func New(fs *dfs.FS, opts Options) *Store {
	opts = opts.Defaulted()
	st := &Store{
		fs:          fs,
		opts:        opts,
		ring:        NewRing(opts.Shards, opts.VirtualNodes, opts.Seed),
		lastSeg:     map[catalog.RetailerID]ManifestEntry{},
		quarantined: map[string]string{},
		cache:       newLRUCache(opts.CacheSize),
		lat:         newLatencyWindow(opts.HedgePercentile, opts.HedgeMin),
		admit:       newAdmitter(opts.AdmitQPS, opts.AdmitBurst),
		rng:         newCheapRNG(opts.Seed ^ 0xba1a9cedb002c4e5),
		m:           newStoreMetrics(opts.Obs.Reg(), opts.Shards),
		fast:        opts.Faults == nil && opts.ServeDelay == 0 && opts.ReplicaConcurrency == 0,
	}
	st.canaries.canaries = map[catalog.RetailerID]*canaryState{}
	st.rootCtx, st.cancel = context.WithCancel(context.Background())
	for s := 0; s < opts.Shards; s++ {
		sh := &shard{id: s}
		for i := 0; i < opts.Replicas; i++ {
			sh.replicas = append(sh.replicas, newReplica(s, i, opts))
		}
		st.shards = append(st.shards, sh)
	}
	if opts.Autoscale {
		st.scaler = newAutoscaler(st, opts)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.scaler.run(st.rootCtx, opts.ScaleInterval)
		}()
	}
	if opts.ScrubInterval > 0 {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			st.runScrubber(opts.ScrubInterval)
		}()
	}
	st.refreshReplicaGauges()
	return st
}

// Observer returns the store's observability surface.
func (st *Store) Observer() *obs.Observer { return st.opts.Obs }

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// ShardFor returns the shard index owning a retailer.
func (st *Store) ShardFor(r catalog.RetailerID) int { return st.ring.Lookup(string(r)) }

// Replica returns one replica (for tests and chaos drivers).
func (st *Store) Replica(shardID, idx int) *Replica {
	sh := st.shards[shardID]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.replicas[idx]
}

// NumReplicas returns a shard's replica count.
func (st *Store) NumReplicas(shardID int) int {
	sh := st.shards[shardID]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.replicas)
}

// KillReplica crashes one replica (requests fail over around it).
func (st *Store) KillReplica(shardID, idx int) {
	st.Replica(shardID, idx).Kill()
	st.refreshReplicaGauges()
}

// ReviveReplica brings a crashed replica back: it catches up to the
// shard's committed generation from the filesystem manifest before taking
// traffic again, so a revived replica can never serve a stale generation.
func (st *Store) ReviveReplica(shardID, idx int) error {
	rep := st.Replica(shardID, idx)
	rep.down.Store(false)
	rep.consecFails.Store(0)
	err := st.catchUp(st.shards[shardID], rep)
	st.refreshReplicaGauges()
	return err
}

// AddReplica grows a shard by one replica, bulk-loading the committed
// generation before it joins the rotation.
func (st *Store) AddReplica(shardID int) (*Replica, error) {
	sh := st.shards[shardID]
	sh.mu.Lock()
	rep := newReplica(shardID, len(sh.replicas), st.opts)
	sh.replicas = append(sh.replicas, rep)
	sh.mu.Unlock()
	err := st.catchUp(sh, rep)
	st.refreshReplicaGauges()
	return rep, err
}

// catchUp loads the shard's committed generation into a (re)joining
// replica. With no committed manifest yet the replica is already current.
func (st *Store) catchUp(sh *shard, rep *Replica) error {
	st.stateMu.RLock()
	man := st.man
	st.stateMu.RUnlock()
	gen := sh.gen.Load()
	if man == nil || gen == 0 {
		rep.gen.Store(gen)
		return nil
	}
	if man.Generation != gen {
		// The shard lags the fleet (it missed a publish wholesale); load
		// its generation's manifest from the filesystem.
		data, err := st.fs.Read(manifestPath(gen))
		if err != nil {
			return fmt.Errorf("store: catch-up manifest for shard %d: %w", sh.id, err)
		}
		if man, err = DecodeManifest(data); err != nil {
			return fmt.Errorf("store: catch-up manifest for shard %d: %w", sh.id, err)
		}
	}
	if err := rep.prepare(gen, st.shardEntries(man, sh.id), &segmentResolver{st: st, sh: sh}); err != nil {
		return err
	}
	rep.commit(gen)
	return nil
}

// shardEntries filters a manifest down to the retailers a shard owns.
func (st *Store) shardEntries(man *Manifest, shardID int) []ManifestEntry {
	var out []ManifestEntry
	for _, e := range man.Entries {
		if st.ring.Lookup(string(e.Retailer)) == shardID {
			out = append(out, e)
		}
	}
	return out
}

func (st *Store) refreshReplicaGauges() {
	for s, sh := range st.shards {
		gen := sh.gen.Load()
		sh.mu.RLock()
		total := len(sh.replicas)
		live := 0
		for _, rep := range sh.replicas {
			if !rep.Down() && rep.Gen() >= gen {
				live++
			}
		}
		sh.mu.RUnlock()
		st.m.replicas[s].Set(float64(total))
		st.m.healthy[s].Set(float64(live))
	}
}

// --- Publish: batch bulk-load of one generation ---

// Publish writes the snapshot as immutable per-retailer segments through
// the shared filesystem, bulk-loads them into every live replica
// (two-phase per shard), and swaps generations atomically. Degraded
// tenants with no fresh recommendations carry their last good segment
// forward via the manifest. On any storage failure the whole generation
// rolls back — the store never serves a torn generation — and the error is
// retained for PublishErr.
//
// Publish satisfies the serving.Server publish contract so the pipeline
// can publish to either backend.
func (st *Store) Publish(snap *serving.Snapshot) {
	if err := st.PublishGeneration(snap); err != nil {
		st.stateMu.Lock()
		st.pubErr = err
		st.stateMu.Unlock()
	}
}

// PublishErr returns the most recent failed publish's error (nil after a
// successful publish).
func (st *Store) PublishErr() error {
	st.stateMu.RLock()
	defer st.stateMu.RUnlock()
	return st.pubErr
}

// PublishGeneration is Publish with the error surfaced.
func (st *Store) PublishGeneration(snap *serving.Snapshot) error {
	st.pubMu.Lock()
	defer st.pubMu.Unlock()
	start := time.Now()
	gen := snap.Version

	// 1. Write fresh segments. Any failure past the retry budget rolls the
	// whole generation back: replicas never observed it.
	var entries []ManifestEntry
	rollback := func(err error) error {
		st.fs.DeletePrefix(genPrefix(gen))
		st.rollbacks.Add(1)
		st.m.rollbacks.Inc()
		return err
	}
	for _, r := range sortedRetailers(snap.Retailers) {
		path := segmentPath(gen, r)
		if err := st.writeVerified(path, EncodeSegment(snap.Retailers[r])); err != nil {
			return rollback(fmt.Errorf("store: writing segment for %s: %w", r, err))
		}
		e := ManifestEntry{Retailer: r, Segment: path, RecsVersion: gen}
		if ts := snap.Status[r]; ts != nil {
			e.Degraded = ts.Degraded
			e.Quarantined = ts.Quarantined
			e.Phase = ts.DegradedPhase
			if ts.Canary {
				// The guard sent this tenant to a live canary: keep the
				// previous generation as the serving (control) path and hang
				// the fresh segment off the entry's canary side. With no
				// previous generation there is nothing to control against,
				// so the fresh data publishes normally.
				st.stateMu.RLock()
				prev, ok := st.lastSeg[r]
				st.stateMu.RUnlock()
				if ok && prev.RecsVersion < gen {
					e.Segment = prev.Segment
					e.RecsVersion = prev.RecsVersion
					e.CanarySegment = path
					e.CanaryVersion = gen
					e.CanaryFraction = ts.CanaryFraction
				}
			}
		}
		entries = append(entries, e)
	}
	// 2. Carry forward degraded tenants without fresh data: their manifest
	// entry keeps pointing at the last good generation's segment.
	st.stateMu.RLock()
	for r, ts := range snap.Status {
		if snap.Retailers[r] != nil || ts == nil {
			continue
		}
		prev, ok := st.lastSeg[r]
		if !ok {
			continue // nothing to serve, same as the single-node server
		}
		entries = append(entries, ManifestEntry{
			Retailer:    r,
			Segment:     prev.Segment,
			RecsVersion: prev.RecsVersion,
			Degraded:    ts.Degraded,
			Quarantined: ts.Quarantined,
			Phase:       ts.DegradedPhase,
		})
	}
	if snap.Rolling {
		// Rolling publish: every retailer the snapshot doesn't mention
		// keeps its previous manifest entry verbatim, so a one-tenant
		// refresh never drops the rest of the fleet from service. Sorted
		// so the manifest encodes deterministically.
		var carried []catalog.RetailerID
		for r := range st.lastSeg {
			if snap.Retailers[r] != nil || snap.Status[r] != nil {
				continue
			}
			carried = append(carried, r)
		}
		sort.Slice(carried, func(i, j int) bool { return carried[i] < carried[j] })
		for _, r := range carried {
			entries = append(entries, st.lastSeg[r])
		}
	}
	st.stateMu.RUnlock()
	man := &Manifest{Generation: gen, Entries: entries}
	if err := st.writeVerified(manifestPath(gen), EncodeManifest(man)); err != nil {
		return rollback(fmt.Errorf("store: writing manifest: %w", err))
	}

	// 3. Two-phase load per shard: prepare every live replica, commit the
	// ones that staged successfully. A shard where no replica could load
	// stays wholly on its previous generation — uniformly stale, never
	// torn; it re-syncs on the next publish or via catch-up.
	committedShards := 0
	for _, sh := range st.shards {
		mine := st.shardEntries(man, sh.id)
		sh.mu.RLock()
		reps := append([]*Replica(nil), sh.replicas...)
		sh.mu.RUnlock()
		var prepared []*Replica
		for _, rep := range reps {
			if rep.Down() {
				continue
			}
			loadStart := time.Now()
			if err := rep.prepare(gen, mine, &segmentResolver{st: st, sh: sh}); err != nil {
				rep.abort()
				continue
			}
			st.m.loadSeconds.Observe(time.Since(loadStart).Seconds())
			prepared = append(prepared, rep)
		}
		if len(prepared) == 0 {
			continue
		}
		for _, rep := range prepared {
			rep.commit(gen)
		}
		sh.gen.Store(gen)
		committedShards++
	}
	if committedShards == 0 {
		return rollback(fmt.Errorf("store: no shard could load generation %d", gen))
	}

	// 4. Commit the store-level state and garbage-collect generations no
	// manifest entry references anymore.
	st.stateMu.Lock()
	st.gen = gen
	st.man = man
	st.pubErr = nil
	for _, e := range entries {
		st.lastSeg[e.Retailer] = e
	}
	st.stateMu.Unlock()

	// Rebuild the canary controller from the committed entries; canaries
	// the new generation superseded while still undecided expire.
	fresh := map[catalog.RetailerID]*canaryState{}
	for _, e := range entries {
		if e.CanarySegment != "" {
			fresh[e.Retailer] = &canaryState{
				retailer: e.Retailer,
				fraction: e.CanaryFraction,
				version:  e.CanaryVersion,
				segment:  e.CanarySegment,
			}
		}
	}
	for _, cs := range st.canaries.reset(fresh) {
		outcome := "expired"
		cs.outcome.Store(&outcome)
		st.canaryExpired.Add(1)
		st.m.canaryExpired.Inc()
	}
	st.m.canariesActive.Set(float64(len(fresh)))

	st.gcGenerations(gen, man)

	st.publishes.Add(1)
	st.m.publishes.Inc()
	st.m.generation.Set(float64(gen))
	st.refreshReplicaGauges()
	st.m.publishSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// gcGenerations deletes segment files older than the retention window that
// the committed manifest no longer references, returning how many files it
// removed. A blob is only deleted when it is provably unreferenced: its
// generation is past the keep window AND no committed manifest entry —
// including carry-forward and canary entries pointing into old generations
// — names it.
func (st *Store) gcGenerations(gen int64, man *Manifest) int {
	referenced := make(map[string]bool, len(man.Entries))
	for _, e := range man.Entries {
		referenced[e.Segment] = true
		if e.CanarySegment != "" {
			referenced[e.CanarySegment] = true
		}
	}
	cutoff := gen - int64(st.opts.KeepGenerations)
	removed := 0
	for _, path := range st.fs.List("store/gen-") {
		rest := strings.TrimPrefix(path, "store/gen-")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue
		}
		g, err := strconv.ParseInt(rest[:slash], 10, 64)
		if err != nil || g > cutoff || referenced[path] {
			continue
		}
		if st.fs.Delete(path) == nil {
			removed++
		}
	}
	return removed
}

func (st *Store) writeWithRetry(path string, data []byte) error {
	rng := linalg.NewRNG(st.opts.Seed ^ hash64(path))
	return retry.Do(context.Background(), st.opts.Retry, rng, func(int) error {
		return st.fs.Write(path, data)
	})
}

func sortedRetailers(m map[catalog.RetailerID]*serving.RetailerRecs) []catalog.RetailerID {
	out := make([]catalog.RetailerID, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- Read path: route, hedge, fail over ---

// Serve answers one request through the three-stage control plane:
// admission (per-tenant fair token bucket), then the in-flight budget,
// then routing — cache first, then the owning shard's replicas with
// power-of-two-choices selection, hedged reads (a second replica is tried
// after the latency threshold; first response wins and the loser's
// context is cancelled) and failover on error. A request the admission or
// shed stage would refuse first descends the brownout ladder (hot-key
// cache at the current generation, then the previous generation's
// entries) and is only rejected when no rung answers. It returns the
// generation that answered.
func (st *Store) Serve(r catalog.RetailerID, uctx interactions.Context, k int) ([]serving.Recommendation, serving.Source, int64, error) {
	if st.closed.Load() {
		return nil, serving.SourceNone, 0, ErrClosed
	}
	if k <= 0 {
		k = 10
	}
	st.requests.Add(1)

	shardID := st.ring.Lookup(string(r))
	if shardID < 0 {
		st.misses.Add(1)
		return nil, serving.SourceNone, 0, errNoReplicas
	}
	sh := st.shards[shardID]
	gen := sh.gen.Load()

	if st.admit != nil {
		if !st.admit.admit(string(r)) {
			if recs, src, served, ok := st.brownout(gen, r, uctx, k); ok {
				return recs, src, served, nil
			}
			st.admRejects.Add(1)
			st.m.rejectAdmission.Inc()
			return nil, serving.SourceNone, 0, ErrAdmission
		}
		st.m.admitted.Inc()
	}
	if st.inflight.Add(1) > int64(st.opts.MaxInflight) {
		st.inflight.Add(-1)
		if recs, src, served, ok := st.brownout(gen, r, uctx, k); ok {
			return recs, src, served, nil
		}
		st.shed.Add(1)
		st.m.rejectShed.Inc()
		return nil, serving.SourceNone, 0, ErrShed
	}
	defer st.inflight.Add(-1)
	st.m.requests[shardID].Inc()

	// An active canary takes the tenant off the hot-key cache entirely:
	// a cached answer would blur the two arms' populations and starve the
	// experiment of samples.
	cs := st.canaries.get(r)
	if cs == nil && st.cache != nil {
		kb := keyBufPool.Get().(*[]byte)
		key := cacheKey((*kb)[:0], gen, r, uctx, k)
		recs, src, ok := st.cache.get(key)
		*kb = key[:0]
		keyBufPool.Put(kb)
		if ok {
			st.m.cacheHits.Inc()
			st.countSource(r, src)
			return recs, src, gen, nil
		}
	}

	arm := cs != nil && canarySlice(r, uctx, cs.fraction)
	start := time.Now()
	recs, src, served, err := st.serveShard(sh, r, uctx, k, arm)
	if cs != nil {
		st.observeCanary(cs, arm, src, err, time.Since(start))
	}
	if err != nil {
		st.misses.Add(1)
		if !errors.Is(err, ErrClosed) {
			st.repFailures.Add(1)
			st.m.rejectReplica.Inc()
		}
		return nil, serving.SourceNone, 0, err
	}
	st.lat.record(time.Since(start))
	st.m.requestSeconds.Observe(time.Since(start).Seconds())
	st.countSource(r, src)
	if src != serving.SourceNone && cs == nil && st.cache != nil {
		kb := keyBufPool.Get().(*[]byte)
		key := cacheKey((*kb)[:0], served, r, uctx, k)
		st.cache.put(key, recs, src)
		*kb = key[:0]
		keyBufPool.Put(kb)
	}
	return recs, src, served, nil
}

// serveShard answers one admitted request from a shard. On the fast path
// (instantaneous replicas: no faults, no service delay, no gate) the
// primary replica is called inline on this goroutine — no hedge context,
// channel, timer, or goroutines — and any error falls back to the full
// fanout, which retries the healthy-first order with failover. Everything
// else goes straight to fanout.
func (st *Store) serveShard(sh *shard, r catalog.RetailerID, uctx interactions.Context, k int, canaryArm bool) ([]serving.Recommendation, serving.Source, int64, error) {
	if st.fast {
		if rep := sh.pickLive(); rep != nil {
			recs, src, gen, err := rep.get(st.rootCtx, r, uctx, k, canaryArm)
			if err == nil {
				return recs, src, gen, nil
			}
			st.failovers.Add(1)
			st.m.failovers[sh.id].Inc()
		}
	}
	return st.fanout(sh, r, uctx, k, canaryArm)
}

// observeCanary rolls one live request into its arm's statistics and
// triggers the promote/rollback decision once both arms have enough
// samples. Decided canaries stop accumulating — their outcome is frozen.
func (st *Store) observeCanary(cs *canaryState, arm bool, src serving.Source, err error, d time.Duration) {
	if cs.decided.Load() {
		return
	}
	a := &cs.control
	if arm {
		a = &cs.canary
	}
	if err != nil {
		a.errors.Add(1)
	} else {
		a.requests.Add(1)
		if src == serving.SourceTopSellers || src == serving.SourceNone {
			a.bad.Add(1)
		}
		a.latencyNs.Add(d.Nanoseconds())
	}
	min := int64(st.opts.CanaryMinSamples)
	if cs.control.requests.Load()+cs.control.errors.Load() >= min &&
		cs.canary.requests.Load()+cs.canary.errors.Load() >= min {
		st.decideCanary(cs)
	}
}

// decideCanary compares the two arms and promotes or rolls back. Exactly
// one caller wins the decided flag; everyone else is a no-op.
func (st *Store) decideCanary(cs *canaryState) {
	if cs.decided.Swap(true) {
		return
	}
	promote, reason := true, ""
	if cs.canary.badRate() > cs.control.badRate()+canaryBadRateMargin {
		promote, reason = false, "bad_rate"
	} else if can := cs.canary.meanLatencyNs(); can > canaryLatencyFloorNs &&
		float64(can) > canaryLatencyFactor*float64(cs.control.meanLatencyNs()) {
		promote, reason = false, "latency"
	}
	shardID := st.ring.Lookup(string(cs.retailer))
	if shardID >= 0 {
		sh := st.shards[shardID]
		sh.mu.RLock()
		reps := append([]*Replica(nil), sh.replicas...)
		sh.mu.RUnlock()
		for _, rep := range reps {
			rep.resolveCanary(cs.retailer, promote)
		}
	}
	// Rewrite the committed in-memory state so carry-forward, catch-up, and
	// tenant statuses all agree with the decision.
	st.stateMu.Lock()
	if e, ok := st.lastSeg[cs.retailer]; ok && e.CanarySegment == cs.segment {
		if promote {
			e.Segment = cs.segment
			e.RecsVersion = cs.version
		}
		e.CanarySegment, e.CanaryVersion, e.CanaryFraction = "", 0, 0
		st.lastSeg[cs.retailer] = e
		if st.man != nil {
			for i := range st.man.Entries {
				if st.man.Entries[i].Retailer == cs.retailer {
					st.man.Entries[i] = e
				}
			}
		}
	}
	st.stateMu.Unlock()
	outcome := "promoted"
	if !promote {
		outcome = "rolled_back:" + reason
		st.canaryRollbacks.Add(1)
		st.m.canaryRolledBack.Inc()
	} else {
		st.canaryPromotions.Add(1)
		st.m.canaryPromoted.Inc()
	}
	cs.outcome.Store(&outcome)
	st.canaries.remove(cs)
	st.m.canariesActive.Set(float64(st.canaries.active()))
}

// brownout is the final degradation rung before a reject: under overload
// an answer that is cached — even one generation stale — beats an error.
// The ladder tries the hot-key cache at the shard's committed generation,
// then the previous generation's still-resident entries (cache keys are
// generation-prefixed, so a publish leaves the old generation's entries
// readable until they age out). Every rescue is counted by rung; with the
// cache disabled the ladder is empty and the reject stands.
func (st *Store) brownout(gen int64, r catalog.RetailerID, uctx interactions.Context, k int) ([]serving.Recommendation, serving.Source, int64, bool) {
	if st.cache == nil {
		return nil, serving.SourceNone, 0, false
	}
	kb := keyBufPool.Get().(*[]byte)
	defer func() {
		*kb = (*kb)[:0]
		keyBufPool.Put(kb)
	}()
	key := cacheKey((*kb)[:0], gen, r, uctx, k)
	*kb = key
	if recs, src, ok := st.cache.get(key); ok {
		st.brownCache.Add(1)
		st.m.brownoutCache.Inc()
		st.countSource(r, src)
		return recs, src, gen, true
	}
	if gen > 1 {
		key = cacheKey((*kb)[:0], gen-1, r, uctx, k)
		*kb = key
		if recs, src, ok := st.cache.get(key); ok {
			st.brownStale.Add(1)
			st.m.brownoutStale.Inc()
			st.countSource(r, src)
			return recs, src, gen - 1, true
		}
	}
	return nil, serving.SourceNone, 0, false
}

// countSource rolls a served answer into the router's fallback chain
// counters, including stale-serve attribution from the manifest.
func (st *Store) countSource(r catalog.RetailerID, src serving.Source) {
	switch src {
	case serving.SourceTopSellers:
		st.fallbacks.Add(1)
	case serving.SourceNone:
		st.misses.Add(1)
	}
	if src != serving.SourceNone {
		st.stateMu.RLock()
		e, ok := st.lastSeg[r]
		st.stateMu.RUnlock()
		if ok && e.Degraded {
			st.staleServes.Add(1)
		}
	}
}

// fanout races replicas for one request: primary first, a hedge after the
// latency threshold, failover on error. The winner's response cancels
// every loser via the shared context.
func (st *Store) fanout(sh *shard, r catalog.RetailerID, uctx interactions.Context, k int, canaryArm bool) ([]serving.Recommendation, serving.Source, int64, error) {
	order := sh.order(st.rng)
	if len(order) == 0 {
		return nil, serving.SourceNone, 0, errNoReplicas
	}
	ctx, cancel := context.WithCancel(st.rootCtx)
	defer cancel()

	type result struct {
		recs   []serving.Recommendation
		src    serving.Source
		gen    int64
		err    error
		hedged bool
	}
	ch := make(chan result, len(order)) // buffered: losers never block
	next := 0
	launch := func(hedged bool) {
		rep := order[next]
		next++
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			recs, src, gen, err := rep.get(ctx, r, uctx, k, canaryArm)
			ch <- result{recs: recs, src: src, gen: gen, err: err, hedged: hedged}
		}()
	}
	launch(false)
	outstanding := 1
	threshold := st.hedgeThreshold()
	timer := time.NewTimer(threshold)
	defer timer.Stop()
	var lastErr error
	for {
		select {
		case <-st.rootCtx.Done():
			return nil, serving.SourceNone, 0, ErrClosed
		case <-timer.C:
			if next < len(order) {
				st.hedges.Add(1)
				st.m.hedges[sh.id].Inc()
				launch(true)
				outstanding++
				timer.Reset(threshold)
			}
		case res := <-ch:
			if res.err == nil {
				if res.hedged {
					st.hedgeWins.Add(1)
					st.m.hedgeWins.Inc()
				}
				return res.recs, res.src, res.gen, nil
			}
			lastErr = res.err
			outstanding--
			if next < len(order) {
				st.failovers.Add(1)
				st.m.failovers[sh.id].Inc()
				launch(false)
				outstanding++
			} else if outstanding == 0 {
				return nil, serving.SourceNone, 0, lastErr
			}
		}
	}
}

func (st *Store) hedgeThreshold() time.Duration {
	if st.opts.HedgeAfter > 0 {
		return st.opts.HedgeAfter
	}
	return st.lat.threshold()
}

// Close rejects new requests, cancels every in-flight replica read, and
// waits for their goroutines to drain.
func (st *Store) Close() {
	if st.closed.Swap(true) {
		return
	}
	st.cancel()
	st.wg.Wait()
}

// --- serving.Backend surface ---

// Recommend answers from the routed store (nil on miss/shed, like the
// single-node server).
func (st *Store) Recommend(r catalog.RetailerID, uctx interactions.Context, k int) []serving.Recommendation {
	recs, _ := st.RecommendWithSource(r, uctx, k)
	return recs
}

// RecommendWithSource is Recommend plus the fallback rung that answered.
func (st *Store) RecommendWithSource(r catalog.RetailerID, uctx interactions.Context, k int) ([]serving.Recommendation, serving.Source) {
	recs, src, _, _ := st.Serve(r, uctx, k)
	return recs, src
}

// Version returns the last committed generation.
func (st *Store) Version() int64 {
	st.stateMu.RLock()
	defer st.stateMu.RUnlock()
	return st.gen
}

// Stats reports router request counters (requests, fallbacks, misses).
func (st *Store) Stats() (requests, fallbacks, misses int64) {
	return st.requests.Load(), st.fallbacks.Load(), st.misses.Load()
}

// StaleServes reports requests answered from a degraded tenant's
// carried-forward segment.
func (st *Store) StaleServes() int64 { return st.staleServes.Load() }

// Hedges, HedgeWins, Failovers, Shed, and Publishes report router health
// counters.
func (st *Store) Hedges() int64    { return st.hedges.Load() }
func (st *Store) HedgeWins() int64 { return st.hedgeWins.Load() }
func (st *Store) Failovers() int64 { return st.failovers.Load() }
func (st *Store) Shed() int64      { return st.shed.Load() }
func (st *Store) Publishes() (committed, rolledBack int64) {
	return st.publishes.Load(), st.rollbacks.Load()
}

// Rejects breaks refusals down by cause: shed (in-flight budget),
// admission (per-tenant token bucket), and replica failure (every
// eligible replica errored or none was live).
func (st *Store) Rejects() (shed, admission, replicaFailure int64) {
	return st.shed.Load(), st.admRejects.Load(), st.repFailures.Load()
}

// Admitted reports requests that passed admission control (0 when
// admission is disabled), and ActiveTenants the admitter's live census.
func (st *Store) Admitted() int64 {
	adm, _, _ := st.admit.stats()
	return adm
}

// ActiveTenants reports how many tenants currently hold an admission
// budget (0 when admission is disabled).
func (st *Store) ActiveTenants() int {
	_, _, n := st.admit.stats()
	return n
}

// BrownoutServes reports requests the brownout ladder rescued from a
// reject, by rung: the current generation's cache and the previous
// (stale) generation's.
func (st *Store) BrownoutServes() (cache, stale int64) {
	return st.brownCache.Load(), st.brownStale.Load()
}

// ScaleEvents reports autoscaler actions.
func (st *Store) ScaleEvents() (up, down int64) {
	return st.scaleUps.Load(), st.scaleDowns.Load()
}

// CanaryDecisions reports live-canary outcomes since start.
func (st *Store) CanaryDecisions() (promoted, rolledBack, expired int64) {
	return st.canaryPromotions.Load(), st.canaryRollbacks.Load(), st.canaryExpired.Load()
}

// ActiveCanaries reports tenants currently serving behind a canary slice.
func (st *Store) ActiveCanaries() int { return st.canaries.active() }

// CanaryOutcome returns a tenant's canary outcome this generation: "" while
// undecided (or never canaried), else "promoted", "rolled_back:<reason>",
// or "expired".
func (st *Store) CanaryOutcome(r catalog.RetailerID) string {
	for _, cs := range st.canaries.snapshotStates() {
		if cs.retailer == r {
			return cs.outcomeString()
		}
	}
	return ""
}

// RecommendOrReject implements serving.Rejecter: Recommend with the
// control plane's refusal surfaced instead of swallowed, so the HTTP
// layer can map admission rejects and sheds onto distinct status codes.
func (st *Store) RecommendOrReject(r catalog.RetailerID, uctx interactions.Context, k int) ([]serving.Recommendation, error) {
	recs, _, _, err := st.Serve(r, uctx, k)
	return recs, err
}

// TenantStatuses returns the committed manifest's per-retailer health.
func (st *Store) TenantStatuses() map[catalog.RetailerID]serving.TenantStatus {
	st.stateMu.RLock()
	defer st.stateMu.RUnlock()
	out := map[catalog.RetailerID]serving.TenantStatus{}
	if st.man == nil {
		return out
	}
	for _, e := range st.man.Entries {
		out[e.Retailer] = *e.status()
	}
	return out
}

// AddJobCounters and JobCounters mirror the single-node server's
// fleet-wide MapReduce counter accumulation for /statz.
func (st *Store) AddJobCounters(c mapreduce.Counters) {
	st.jobMu.Lock()
	st.jobCounters.Add(c)
	st.jobMu.Unlock()
}

func (st *Store) JobCounters() mapreduce.Counters {
	st.jobMu.Lock()
	defer st.jobMu.Unlock()
	return st.jobCounters
}

// StatzBlocks contributes the "store" block to /statz: per-shard replica
// health and generation, plus router counters.
func (st *Store) StatzBlocks() map[string]any {
	type replicaStatz struct {
		Generation int64 `json:"generation"`
		Down       bool  `json:"down"`
		Healthy    bool  `json:"healthy"`
		Served     int64 `json:"served"`
		Cancelled  int64 `json:"cancelled"`
	}
	type shardStatz struct {
		Generation int64          `json:"generation"`
		Replicas   []replicaStatz `json:"replicas"`
	}
	st.refreshReplicaGauges()
	shards := make([]shardStatz, len(st.shards))
	for s, sh := range st.shards {
		ss := shardStatz{Generation: sh.gen.Load()}
		sh.mu.RLock()
		for _, rep := range sh.replicas {
			ss.Replicas = append(ss.Replicas, replicaStatz{
				Generation: rep.Gen(),
				Down:       rep.Down(),
				Healthy:    rep.healthy(),
				Served:     rep.Served(),
				Cancelled:  rep.Cancelled(),
			})
		}
		sh.mu.RUnlock()
		shards[s] = ss
	}
	entries, hits := st.cache.stats()
	committed, rolledBack := st.Publishes()
	blocks := map[string]any{}
	if info := st.resume.Load(); info != nil {
		blocks["resume"] = *info
	}
	blocks["store"] = struct {
		Generation   int64        `json:"generation"`
		Shards       []shardStatz `json:"shards"`
		Hedges       int64        `json:"hedges"`
		HedgeWins    int64        `json:"hedge_wins"`
		Failovers    int64        `json:"failovers"`
		Shed         int64        `json:"shed"`
		CacheEntries int          `json:"cache_entries"`
		CacheHits    int64        `json:"cache_hits"`
		Publishes    int64        `json:"publishes"`
		Rollbacks    int64        `json:"rollbacks"`
	}{st.Version(), shards, st.Hedges(), st.HedgeWins(), st.Failovers(), st.Shed(), entries, hits, committed, rolledBack}
	shed, admission, repFail := st.Rejects()
	bCache, bStale := st.BrownoutServes()
	ups, downs := st.ScaleEvents()
	blocks["overload"] = struct {
		Admitted            int64 `json:"admitted"`
		ActiveTenants       int   `json:"active_tenants"`
		RejectsShed         int64 `json:"rejects_shed"`
		RejectsAdmission    int64 `json:"rejects_admission"`
		RejectsReplica      int64 `json:"rejects_replica_failure"`
		BrownoutCacheServes int64 `json:"brownout_cache_serves"`
		BrownoutStaleServes int64 `json:"brownout_stale_serves"`
		ScaleUps            int64 `json:"scale_ups"`
		ScaleDowns          int64 `json:"scale_downs"`
	}{st.Admitted(), st.ActiveTenants(), shed, admission, repFail, bCache, bStale, ups, downs}
	states := st.canaries.snapshotStates()
	if info := st.guardInfo.Load(); info != nil || len(states) > 0 {
		type canaryStatz struct {
			Retailer        string  `json:"retailer"`
			Fraction        float64 `json:"fraction"`
			Version         int64   `json:"version"`
			ControlRequests int64   `json:"control_requests"`
			CanaryRequests  int64   `json:"canary_requests"`
			Outcome         string  `json:"outcome,omitempty"`
		}
		cz := make([]canaryStatz, 0, len(states))
		for _, cs := range states {
			cz = append(cz, canaryStatz{
				Retailer:        string(cs.retailer),
				Fraction:        cs.fraction,
				Version:         cs.version,
				ControlRequests: cs.control.requests.Load(),
				CanaryRequests:  cs.canary.requests.Load(),
				Outcome:         cs.outcomeString(),
			})
		}
		sort.Slice(cz, func(i, j int) bool { return cz[i].Retailer < cz[j].Retailer })
		promoted, rolledBack, expired := st.CanaryDecisions()
		blocks["guard"] = struct {
			Pipeline         *serving.GuardInfo `json:"pipeline,omitempty"`
			CanaryPromotions int64              `json:"canary_promotions"`
			CanaryRollbacks  int64              `json:"canary_rollbacks"`
			CanariesExpired  int64              `json:"canaries_expired"`
			Canaries         []canaryStatz      `json:"canaries,omitempty"`
		}{st.guardInfo.Load(), promoted, rolledBack, expired, cz}
	}
	if info := st.freshness.Load(); info != nil {
		blocks["freshness"] = *info
	}
	blocks["integrity"] = st.integrityInfo()
	return blocks
}

// latencyWindow tracks recent request latencies for the adaptive hedge
// threshold: hedge after the window's configured percentile, floored at
// min. Until enough samples arrive it returns a conservative default so
// cold starts don't hedge every request.
type latencyWindow struct {
	mu     sync.Mutex
	buf    []time.Duration
	n, idx int
	since  int
	cached time.Duration
	pct    float64
	min    time.Duration
	// scratch is the reusable sort buffer for recalcLocked, so the
	// periodic percentile recomputation never allocates.
	scratch []time.Duration
}

const latWindowSize = 512

func newLatencyWindow(pct float64, min time.Duration) *latencyWindow {
	return &latencyWindow{buf: make([]time.Duration, latWindowSize), pct: pct, min: min}
}

func (lw *latencyWindow) record(d time.Duration) {
	lw.mu.Lock()
	lw.buf[lw.idx] = d
	lw.idx = (lw.idx + 1) % len(lw.buf)
	if lw.n < len(lw.buf) {
		lw.n++
	}
	lw.since++
	if lw.since >= 64 || lw.cached == 0 {
		lw.since = 0
		lw.recalcLocked()
	}
	lw.mu.Unlock()
}

func (lw *latencyWindow) recalcLocked() {
	if lw.n == 0 {
		return
	}
	if cap(lw.scratch) < lw.n {
		lw.scratch = make([]time.Duration, lw.n)
	}
	cp := lw.scratch[:lw.n]
	copy(cp, lw.buf[:lw.n])
	slices.Sort(cp)
	p := cp[int(lw.pct*float64(lw.n-1))]
	if p < lw.min {
		p = lw.min
	}
	lw.cached = p
}

// current returns the window's cached percentile with no cold-start
// default — 0 until samples arrive. The autoscaler reads this: before
// traffic there is no latency signal, and the generous cold-start hedge
// default must not read as overload.
func (lw *latencyWindow) current() time.Duration {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.n == 0 {
		return 0
	}
	return lw.cached
}

func (lw *latencyWindow) threshold() time.Duration {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.n < 20 {
		// Cold start: a generous default so the first requests don't all
		// hedge before the window has signal.
		if d := 16 * lw.min; d > 2*time.Millisecond {
			return d
		}
		return 2 * time.Millisecond
	}
	return lw.cached
}
