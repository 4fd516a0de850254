package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"sigmund/internal/dfs"
	"sigmund/internal/serving"
)

// Storage integrity: corruption of a blob the store depends on must be a
// detected, attributed, and self-healed event — never a corrupt
// /recommend response. Detection is two-layer (the dfs integrity footer,
// then the structural decoders as defence in depth: bytes that verify but
// do not parse), and every incident funnels through the same machinery here:
// it is counted in sigmund_integrity_corrupt_total, the path is
// quarantined, and repair is attempted — first by re-reading the
// filesystem (transient read rot), then by re-replicating from a healthy
// peer replica's in-memory copy, and finally by falling back to the
// replica's own previous-generation data so the affected tenants serve
// gen N−1 instead of poison. The background scrubber (scrub.go) closes
// the loop for at-rest rot between publishes.

// integrityReadAttempts bounds re-reads of a blob that failed
// verification before repair escalates past the filesystem.
const integrityReadAttempts = 3

// writeVerifyAttempts bounds write → read-back → rewrite cycles during
// publish and repair.
const writeVerifyAttempts = 3

// isIntegrityErr classifies a read failure as a corruption incident —
// something verification caught — as opposed to an availability failure
// (injected I/O error, replica down) that retry and failover own. A
// referenced blob that does not exist is an integrity event: the manifest
// says it must.
func isIntegrityErr(err error) bool {
	return errors.Is(err, dfs.ErrCorrupt) || errors.Is(err, dfs.ErrNotExist)
}

// noteCorrupt records one detected corruption incident: counter, metric,
// and quarantine (first failure observed wins as the recorded reason).
func (st *Store) noteCorrupt(path string, err error) {
	st.integCorrupt.Add(1)
	st.m.integCorrupt.Inc()
	st.integMu.Lock()
	if _, ok := st.quarantined[path]; !ok {
		st.quarantined[path] = err.Error()
	}
	st.integMu.Unlock()
}

// noteRepaired records one repaired incident and lifts the quarantine.
func (st *Store) noteRepaired(path string) {
	st.integRepaired.Add(1)
	st.m.integRepaired.Inc()
	st.integMu.Lock()
	delete(st.quarantined, path)
	st.integMu.Unlock()
}

// clearQuarantine drops a path from the quarantine set without counting a
// repair (used when the blob is no longer referenced by any manifest).
func (st *Store) clearQuarantine(path string) {
	st.integMu.Lock()
	delete(st.quarantined, path)
	st.integMu.Unlock()
}

// IntegrityCounts reports the subsystem's cumulative counters: blobs the
// scrubber verified, corruption incidents detected, and incidents
// repaired.
func (st *Store) IntegrityCounts() (scrubbed, corrupt, repaired int64) {
	return st.integScrubbed.Load(), st.integCorrupt.Load(), st.integRepaired.Load()
}

// IntegrityFallbacks reports tenants that served their previous
// generation because their fresh segment failed verification and could
// not be repaired in time.
func (st *Store) IntegrityFallbacks() int64 { return st.integFallbacks.Load() }

// QuarantinedBlobs returns the sorted paths currently quarantined:
// detected corrupt (or missing while referenced) and not yet repaired.
func (st *Store) QuarantinedBlobs() []string {
	st.integMu.Lock()
	out := make([]string, 0, len(st.quarantined))
	for p := range st.quarantined {
		out = append(out, p)
	}
	st.integMu.Unlock()
	sort.Strings(out)
	return out
}

// integrityInfo assembles the /statz "integrity" block.
func (st *Store) integrityInfo() serving.IntegrityInfo {
	scrubbed, corrupt, repaired := st.IntegrityCounts()
	return serving.IntegrityInfo{
		Scrubbed:    scrubbed,
		Corrupt:     corrupt,
		Repaired:    repaired,
		Fallbacks:   st.integFallbacks.Load(),
		OrphansGCed: st.orphansGCed.Load(),
		ScrubPasses: st.scrubPasses.Load(),
		Quarantined: st.QuarantinedBlobs(),
	}
}

// fetchVerified reads and structurally decodes one segment blob, retrying
// transient read corruption. The first failed attempt counts one corrupt
// incident and quarantines the path; a later attempt succeeding counts
// the matching repair (the re-read IS the repair). The returned flag
// reports whether the final failure was an integrity incident (corrupt,
// malformed, or missing) — availability errors return false and were not
// counted, so the caller keeps its ordinary failure semantics for them.
func (st *Store) fetchVerified(path string) (*serving.RetailerRecs, bool, error) {
	var lastErr error
	integrity, flagged := false, false
	for attempt := 0; attempt < integrityReadAttempts; attempt++ {
		data, err := st.fs.Read(path)
		if err == nil {
			rr, derr := DecodeSegment(data)
			if derr == nil {
				if flagged {
					st.noteRepaired(path)
				}
				return rr, false, nil
			}
			// Structural decode failure: the bytes verified but are not
			// a segment — not the shape that was written. Counted as the
			// same integrity event as a footer failure.
			err = derr
			integrity = true
		} else if isIntegrityErr(err) {
			integrity = true
		} else {
			return nil, false, err // availability failure: not ours
		}
		lastErr = err
		if !flagged {
			st.noteCorrupt(path, lastErr)
			flagged = true
		}
		if errors.Is(lastErr, dfs.ErrNotExist) {
			break // re-reading a missing file cannot help; peer repair might
		}
	}
	return nil, integrity, lastErr
}

// writeVerified durably writes a blob and reads it back, rewriting when
// the stored image fails verification or does not match — the
// write-path arm of corruption detection, catching rot injected at
// OpWrite before any replica can load it. Each detected mismatch counts
// one corrupt incident; a later clean read-back counts the repair.
func (st *Store) writeVerified(path string, data []byte) error {
	var lastErr error
	flagged := false
	for attempt := 0; attempt < writeVerifyAttempts; attempt++ {
		if err := st.writeWithRetry(path, data); err != nil {
			return err
		}
		got, err := st.fs.Read(path)
		if err == nil && bytes.Equal(got, data) {
			if flagged {
				st.noteRepaired(path)
			}
			return nil
		}
		if err == nil {
			err = fmt.Errorf("store: read-back of %s returned %d bytes, wrote %d: %w",
				path, len(got), len(data), dfs.ErrCorrupt)
		} else if !isIntegrityErr(err) {
			return err // availability failure: let the publish retry policy own it
		}
		lastErr = err
		if !flagged {
			st.noteCorrupt(path, lastErr)
			flagged = true
		}
	}
	return lastErr
}

// segmentResolver gives a replica's bulk load access to the store-level
// integrity machinery: incident accounting, peer re-replication from the
// owning shard's other replicas, and file healing.
type segmentResolver struct {
	st *Store
	sh *shard
}

// peerBytes asks the shard's other replicas for their in-memory copy of
// the entry's segment at the exact version the manifest references.
// Flat-backed recs re-encode byte-for-byte, so a successful peer fetch
// reproduces the original blob exactly.
func (res *segmentResolver) peerBytes(e ManifestEntry, self *Replica, canary bool) []byte {
	res.sh.mu.RLock()
	reps := append([]*Replica(nil), res.sh.replicas...)
	res.sh.mu.RUnlock()
	for _, rep := range reps {
		if rep == self || rep.Down() {
			continue
		}
		if data := rep.segmentBytes(e, canary); data != nil {
			return data
		}
	}
	return nil
}

// healFile rewrites a quarantined blob from recovered bytes and verifies
// the result; only a clean read-back counts as a repair (a persistent
// read-rot rule keeps the path quarantined, which is the truth).
func (res *segmentResolver) healFile(path string, data []byte) {
	st := res.st
	if err := st.writeWithRetry(path, data); err != nil {
		return
	}
	if got, err := st.fs.Read(path); err == nil && bytes.Equal(got, data) {
		st.noteRepaired(path)
	}
}
