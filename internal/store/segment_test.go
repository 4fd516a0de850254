package store

import (
	"bytes"
	"reflect"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/serving"
)

func testRetailerRecs() *serving.RetailerRecs {
	return &serving.RetailerRecs{
		Recs: map[catalog.ItemID]inference.ItemRecs{
			0: {
				Item:     0,
				View:     []hybrid.Scored{{Item: 1, Score: 0.9}, {Item: 2, Score: 0.5}},
				Purchase: []hybrid.Scored{{Item: 2, Score: 0.8}},
			},
			3: {
				Item:       3,
				View:       []hybrid.Scored{{Item: 0, Score: 0.7}},
				LateFunnel: []hybrid.Scored{{Item: 1, Score: 0.4}},
			},
		},
		TopSellers: []catalog.ItemID{2, 0, 1},
	}
}

// materialized flattens either representation into comparable heap form.
func materialized(t *testing.T, rr *serving.RetailerRecs) (map[catalog.ItemID]inference.ItemRecs, []catalog.ItemID) {
	t.Helper()
	if rr.Flat == nil {
		return rr.Recs, rr.TopSellers
	}
	items, top := rr.Flat.Materialize()
	m := make(map[catalog.ItemID]inference.ItemRecs, len(items))
	for _, ir := range items {
		m[ir.Item] = ir
	}
	return m, top
}

func TestSegmentRoundTrip(t *testing.T) {
	rr := testRetailerRecs()
	data := EncodeSegment(rr)
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if got.Flat == nil {
		t.Fatal("decode should be flat-backed, got a map")
	}
	gotRecs, gotTop := materialized(t, got)
	if !reflect.DeepEqual(rr.Recs, gotRecs) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", rr.Recs, gotRecs)
	}
	if !reflect.DeepEqual(rr.TopSellers, gotTop) {
		t.Fatalf("top sellers mismatch: in %v out %v", rr.TopSellers, gotTop)
	}
	// Re-encoding a flat-backed decode must be the identity.
	if !bytes.Equal(data, EncodeSegment(got)) {
		t.Fatal("encode → decode → encode is not a fixed point")
	}
}

func TestSegmentDeterministic(t *testing.T) {
	rr := testRetailerRecs()
	if !bytes.Equal(EncodeSegment(rr), EncodeSegment(rr)) {
		t.Fatal("EncodeSegment is not byte-deterministic")
	}
}

func TestSegmentRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("BOGUS"),
		EncodeSegment(testRetailerRecs())[:10], // truncated
		append(EncodeSegment(testRetailerRecs()), 0xde, 0xad), // trailing bytes
		v1Segment,                              // the retired v1 format, well formed
		v1Segment[:10],                         // truncated v1
		[]byte("SSEG\xff\xff\xff\xff\x00\x00"), // absurd v1 count
	}
	for i, data := range cases {
		if _, err := DecodeSegment(data); err == nil {
			t.Errorf("case %d: DecodeSegment accepted corrupt input", i)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Generation: 7,
		Entries: []ManifestEntry{
			{Retailer: "zeta", Segment: segmentPath(7, "zeta"), RecsVersion: 7},
			{Retailer: "alpha", Segment: segmentPath(5, "alpha"), RecsVersion: 5, Degraded: true, Phase: "train"},
		},
	}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got.Generation != 7 || len(got.Entries) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// EncodeManifest sorts entries by retailer.
	if got.Entries[0].Retailer != "alpha" || got.Entries[1].Retailer != "zeta" {
		t.Fatalf("entries not sorted by retailer: %+v", got.Entries)
	}
	st := got.Entries[0].status()
	if !st.Degraded || st.DegradedPhase != "train" || st.RecsVersion != 5 {
		t.Fatalf("status() lost fields: %+v", st)
	}
}
