package store

import (
	"encoding/json"
	"fmt"
	"sort"

	"sigmund/internal/catalog"
	"sigmund/internal/core/inference"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
)

// Segments are the bulk-load unit of the store: one immutable file per
// retailer per generation, written through the shared filesystem by the
// publish phase and read back by every replica of the owning shard. A
// degraded tenant gets no fresh segment; its manifest entry points at the
// last good generation's file instead (stale carry-forward), so a replica
// recovering later can still rebuild the full generation from the
// filesystem alone.
//
// A segment is an SSG2 flat segment (internal/segment): an offset-indexed
// layout replicas serve directly from the loaded bytes, with no
// per-tenant map reconstruction.

// EncodeSegment serializes one retailer's materialized recommendations as
// an SSG2 segment. Flat-backed recs pass through byte-for-byte (their
// bytes ARE the canonical encoding); map-backed recs are packed into the
// canonical sorted layout.
func EncodeSegment(rr *serving.RetailerRecs) []byte {
	if rr.Flat != nil {
		return rr.Flat.Bytes()
	}
	items := make([]inference.ItemRecs, 0, len(rr.Recs))
	for _, ir := range rr.Recs {
		items = append(items, ir)
	}
	return segment.Encode(items, rr.TopSellers)
}

// DecodeSegment validates an SSG2 segment in place and returns it as a
// zero-copy flat-backed RetailerRecs (retaining data, which must stay
// immutable). Any structural failure wraps segment.ErrMalformed.
func DecodeSegment(data []byte) (*serving.RetailerRecs, error) {
	f, err := segment.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &serving.RetailerRecs{Flat: f}, nil
}

// Manifest describes one published generation: for every retailer, which
// segment file holds its recommendations (possibly from an older
// generation, for stale carry-forward) and its health metadata. The
// manifest is the generation's authoritative file-system record — a
// replica that missed the publish (crashed, partitioned) catches up by
// re-reading it.
type Manifest struct {
	Generation int64           `json:"generation"`
	Entries    []ManifestEntry `json:"entries"`
}

// ManifestEntry is one retailer's row in a generation manifest.
type ManifestEntry struct {
	Retailer catalog.RetailerID `json:"retailer"`
	// Segment is the shared-filesystem path of the retailer's segment. For
	// degraded tenants it points into an older generation's directory.
	Segment string `json:"segment"`
	// RecsVersion is the generation the segment was materialized in.
	RecsVersion int64  `json:"recs_version"`
	Degraded    bool   `json:"degraded,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Phase       string `json:"phase,omitempty"`

	// Canary fields, set when the guard sent this tenant's fresh
	// generation to a live canary: Segment/RecsVersion above keep
	// pointing at the control (previous) generation that serves most
	// traffic, while CanarySegment holds the fresh generation served to
	// the CanaryFraction hash-slice until the store promotes or rolls it
	// back.
	CanarySegment  string  `json:"canary_segment,omitempty"`
	CanaryVersion  int64   `json:"canary_version,omitempty"`
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
}

// EncodeManifest serializes a manifest with entries sorted by retailer.
func EncodeManifest(m *Manifest) []byte {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Retailer < m.Entries[j].Retailer })
	data, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only marshalable fields; this is a bug.
		panic(fmt.Sprintf("store: encoding manifest: %v", err))
	}
	return data
}

// DecodeManifest reverses EncodeManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: decoding manifest: %w", err)
	}
	return &m, nil
}

// status converts a manifest entry into the serving layer's per-tenant
// health record.
func (e ManifestEntry) status() *serving.TenantStatus {
	return &serving.TenantStatus{
		Degraded:       e.Degraded,
		Quarantined:    e.Quarantined,
		DegradedPhase:  e.Phase,
		RecsVersion:    e.RecsVersion,
		Canary:         e.CanarySegment != "",
		CanaryFraction: e.CanaryFraction,
	}
}

// Shared-filesystem layout: everything for one generation lives under one
// prefix so rollback and GC are prefix operations.

func genPrefix(gen int64) string {
	return fmt.Sprintf("store/gen-%d/", gen)
}

func segmentPath(gen int64, r catalog.RetailerID) string {
	return fmt.Sprintf("store/gen-%d/seg/%s", gen, r)
}

func manifestPath(gen int64) string {
	return fmt.Sprintf("store/gen-%d/MANIFEST", gen)
}
