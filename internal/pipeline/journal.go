package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/core/inference"
	"sigmund/internal/core/modelselect"
	"sigmund/internal/dfs"
	"sigmund/internal/faults"
	"sigmund/internal/linalg"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/retry"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
)

// The day journal makes RunDay crash-resumable: an intent record pins the
// day's plan, then each unit of work appends a completion record only
// after its artifacts are durable in the shared filesystem. A restarted
// coordinator replays the journal and skips everything already committed:
//
//	intent     day, tenant set, plan hash — replay refuses a changed plan
//	staged     one per tenant: the exact planned config records (training
//	           data and holdout are durable before this commits)
//	cell       one per training cell: its outputs are durable at
//	           recordsPath before this commits; counters ride along so a
//	           resumed day's totals match an uninterrupted one
//	inferred   one per tenant: materialized recommendations are durable
//	           at recsPath before this commits
//	published  the snapshot version handed to the publisher (publishing
//	           is idempotent, so resume re-publishes unconditionally)
//	done       the day completed; everything before the next intent is
//	           replayable
//	abort      a clean context-cancelled shutdown (informational)
//
// Work with no completion record at replay time was in flight when the
// coordinator died and is simply re-executed — every stage writes its
// artifacts with write-then-commit discipline, so re-execution is
// idempotent.
const (
	recIntent    = "intent"
	recStaged    = "staged"
	recCell      = "cell"
	recInferred  = "inferred"
	recGuard     = "guard"
	recPublished = "published"
	recDone      = "done"
	recAbort     = "abort"
)

// journalRecord is the JSON payload of one day-journal record; which
// fields are meaningful depends on Type.
type journalRecord struct {
	Type string `json:"type"`
	Day  int    `json:"day"`

	// intent
	PlanHash string               `json:"plan_hash,omitempty"`
	Tenants  []catalog.RetailerID `json:"tenants,omitempty"`

	// staged / inferred
	Retailer catalog.RetailerID `json:"retailer,omitempty"`

	// staged
	FullSweep bool                       `json:"full_sweep,omitempty"`
	Configs   []modelselect.ConfigRecord `json:"configs,omitempty"`

	// cell
	Cell int `json:"cell"`

	// cell / inferred
	Counters *mapreduce.Counters `json:"counters,omitempty"`

	// inferred
	ItemsServed int `json:"items_served,omitempty"`

	// published
	Version int64 `json:"version,omitempty"`

	// guard: the quality firewall's decision for Retailer. Committed
	// before the verdict is applied, so a resume replays the same
	// decision even if the baseline was folded forward in between.
	Verdict string `json:"verdict,omitempty"`

	// abort / guard (the gate that tripped)
	Reason string `json:"reason,omitempty"`
}

// journalError is a fleet-level day-journal failure: either an injected
// coordinator crashpoint fired (crash == true) or appending a record
// exhausted its retry budget. Both abort the whole day — a journal that
// cannot record progress must not let work commit invisibly past it.
type journalError struct {
	day    int
	record int
	crash  bool
	err    error
}

func (e *journalError) Error() string {
	if e.crash {
		return fmt.Sprintf("pipeline: coordinator crashed after day %d journal record %d: %v", e.day, e.record, e.err)
	}
	return fmt.Sprintf("pipeline: day %d journal: %v", e.day, e.err)
}

func (e *journalError) Unwrap() error { return e.err }

// IsCoordinatorCrash reports whether err is an injected coordinator
// crash (a faults.OpCoordinator crashpoint). The day's journal survives,
// so calling RunDay again resumes the same day instead of restarting it —
// the supervisor loop in cmd/sigmundd keys its auto-restart on this.
func IsCoordinatorCrash(err error) bool {
	var je *journalError
	return errors.As(err, &je) && je.crash
}

// coordinatorCrashPath is the path an OpCoordinator rule matches:
// "day-<day>/record-<index>/". The trailing slash keeps "record-1/" from
// substring-matching "record-10".
func coordinatorCrashPath(day, record int) string {
	return fmt.Sprintf("day-%d/record-%d/", day, record)
}

// dayJournal is one RunDay's view of its journal: the replayed completion
// state plus live bookkeeping for the resume metrics.
type dayJournal struct {
	p   *Pipeline
	j   *dfs.Journal
	day int

	// Replayed state, read-only after openDayJournal.
	resumed   bool
	replayed  int
	staged    map[catalog.RetailerID]*journalRecord
	cells     map[int]*journalRecord
	inferred  map[catalog.RetailerID]*journalRecord
	guard     map[catalog.RetailerID]*journalRecord
	published bool
	done      bool

	mu              sync.Mutex
	skippedCells    int
	replayedTenants int
}

// openDayJournal opens (or creates) the day's journal, replays its
// records, verifies the replay invariants against the current plan, and
// commits the intent record on a fresh day. The intent append is the
// day's first crashpoint.
func (p *Pipeline) openDayJournal(ctx context.Context, day int, ids []catalog.RetailerID) (*dayJournal, error) {
	j, raw, err := dfs.OpenJournal(p.fs, journalPath(day))
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening day %d journal: %w", day, err)
	}
	dj := &dayJournal{
		p: p, j: j, day: day,
		staged:   map[catalog.RetailerID]*journalRecord{},
		cells:    map[int]*journalRecord{},
		inferred: map[catalog.RetailerID]*journalRecord{},
		guard:    map[catalog.RetailerID]*journalRecord{},
	}
	hash := p.planHash(ids)
	var intent *journalRecord
	for _, payload := range raw {
		rec := new(journalRecord)
		if err := json.Unmarshal(payload, rec); err != nil {
			// The checksum passed, so this is not a torn write; a record
			// that frames cleanly but does not decode is a format bug.
			return nil, fmt.Errorf("pipeline: decoding day %d journal record: %w", day, err)
		}
		switch rec.Type {
		case recIntent:
			if intent == nil {
				intent = rec
			}
		case recStaged:
			dj.staged[rec.Retailer] = rec
		case recCell:
			dj.cells[rec.Cell] = rec
		case recInferred:
			dj.inferred[rec.Retailer] = rec
		case recGuard:
			dj.guard[rec.Retailer] = rec
		case recPublished:
			dj.published = true
		case recDone:
			dj.done = true
		case recAbort:
			// Informational: a previous incarnation shut down cleanly.
		}
	}
	if intent == nil {
		// Fresh day (or a journal truncated back to nothing).
		dj.staged = map[catalog.RetailerID]*journalRecord{}
		return dj, dj.append(ctx, journalRecord{Type: recIntent, Day: day, PlanHash: hash, Tenants: ids})
	}
	// Replay invariants: resuming under a different day, plan, or tenant
	// set would silently diverge from the journaled work, so refuse.
	if intent.Day != day {
		return nil, fmt.Errorf("pipeline: day %d journal holds an intent for day %d", day, intent.Day)
	}
	if intent.PlanHash != hash {
		return nil, fmt.Errorf("pipeline: day %d journal was written under plan %s, current plan is %s: configuration changed between crash and resume", day, intent.PlanHash, hash)
	}
	if !equalTenantSets(intent.Tenants, ids) {
		return nil, fmt.Errorf("pipeline: day %d journal covers tenants %v, current fleet is %v", day, intent.Tenants, ids)
	}
	dj.resumed = true
	dj.replayed = len(raw)
	return dj, nil
}

// append durably commits one record, observes the write latency, and then
// consults the coordinator crashpoint keyed by the record's index. Safe
// for concurrent use (training cells and inference jobs append from their
// own goroutines).
func (dj *dayJournal) append(ctx context.Context, rec journalRecord) error {
	rec.Day = dj.day
	payload, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("pipeline: encoding journal record: %v", err))
	}
	p := dj.p
	start := time.Now()
	rng := linalg.NewRNG(p.opts.Seed ^ pathHash("journal/"+rec.Type))
	var idx int
	err = retry.Do(ctx, p.opts.Retry, rng, func(int) error {
		var aerr error
		idx, aerr = dj.j.Append(payload)
		return aerr
	})
	if reg := p.opts.Obs.Reg(); reg != nil {
		reg.Histogram("sigmund_pipeline_journal_write_seconds",
			"Durable day-journal record commit latency (retries included).",
			obs.DurationBuckets()).Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return &journalError{day: dj.day, err: fmt.Errorf("appending %s record: %w", rec.Type, err)}
	}
	if err := p.opts.Injector.Before(faults.OpCoordinator, coordinatorCrashPath(dj.day, idx)); err != nil {
		return &journalError{day: dj.day, record: idx, crash: true, err: err}
	}
	return nil
}

// appendAbort best-effort records a clean context-cancelled shutdown. It
// writes directly — no retry (the context is already dead) and no
// crashpoint (the process is exiting anyway). A lost abort record costs
// nothing: it is informational.
func (dj *dayJournal) appendAbort(reason string) {
	payload, err := json.Marshal(journalRecord{Type: recAbort, Day: dj.day, Reason: reason})
	if err != nil {
		return
	}
	_, _ = dj.j.Append(payload)
}

func (dj *dayJournal) stagedRecord(r catalog.RetailerID) *journalRecord { return dj.staged[r] }
func (dj *dayJournal) guardRecord(r catalog.RetailerID) *journalRecord  { return dj.guard[r] }
func (dj *dayJournal) cellRecord(cell int) *journalRecord               { return dj.cells[cell] }
func (dj *dayJournal) inferredRecord(r catalog.RetailerID) *journalRecord {
	return dj.inferred[r]
}

func (dj *dayJournal) noteSkippedCell() {
	dj.mu.Lock()
	dj.skippedCells++
	dj.mu.Unlock()
}

func (dj *dayJournal) noteReplayedTenant() {
	dj.mu.Lock()
	dj.replayedTenants++
	dj.mu.Unlock()
}

func (dj *dayJournal) counts() (skippedCells, replayedTenants int) {
	dj.mu.Lock()
	defer dj.mu.Unlock()
	return dj.skippedCells, dj.replayedTenants
}

// planHash fingerprints the options that determine a day's plan: sweep
// shapes, epochs, cell layout, and the seed that drives the config
// shuffle. A resumed day must run under the same fingerprint or the
// journaled completion records would not line up with the replanned work.
func (p *Pipeline) planHash(ids []catalog.RetailerID) string {
	h := fnv.New64a()
	o := p.opts
	fmt.Fprintf(h, "grid=%+v|hyper=%+v|fe=%d|ie=%d|topk=%d|restart=%d|cells=%d|infk=%d|seed=%d|tenants=%v",
		o.Grid, o.BaseHyper, o.FullEpochs, o.IncrementalEpochs, o.TopKIncremental,
		o.FullRestartEvery, o.Cells, o.InferTopK, o.Seed, ids)
	return fmt.Sprintf("%016x", h.Sum64())
}

func equalTenantSets(a, b []catalog.RetailerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// loadCellRecords decodes a replayed training cell's committed output
// records from the shared filesystem.
func (p *Pipeline) loadCellRecords(day, cell int) ([]modelselect.ConfigRecord, error) {
	raw, err := p.fs.Read(recordsPath(day, cell))
	if err != nil {
		return nil, err
	}
	var out []modelselect.ConfigRecord
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := DecodeConfigRecord(line)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pipeline: cell %d records empty", cell)
	}
	return out, nil
}

// loadRecsBlob reloads a replayed tenant's committed recommendations. The
// blob is the tenant's SSG2 segment (segment.Encode of inference's
// output, which already lists items in ascending id order without
// duplicates), so materializing it returns exactly what inference
// produced, bit for bit.
func (p *Pipeline) loadRecsBlob(day int, r catalog.RetailerID) ([]inference.ItemRecs, []catalog.ItemID, error) {
	raw, err := p.fs.Read(recsPath(day, r))
	if err != nil {
		return nil, nil, err
	}
	f, err := segment.Parse(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: recs blob for %s: %w", r, err)
	}
	items, sellers := f.Materialize()
	return items, sellers, nil
}

// resumeInfo converts the journal's bookkeeping into the serving layer's
// /statz resume block.
func (dj *dayJournal) resumeInfo() serving.ResumeInfo {
	skipped, replayedTenants := dj.counts()
	return serving.ResumeInfo{
		Day:             dj.day,
		Resumed:         dj.resumed,
		RecordsReplayed: dj.replayed,
		CellsSkipped:    skipped,
		TenantsReplayed: replayedTenants,
		JournalRecords:  dj.j.Len(),
	}
}
