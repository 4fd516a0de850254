package segment

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
)

func testItems() []inference.ItemRecs {
	return []inference.ItemRecs{
		{
			Item:     0,
			View:     []hybrid.Scored{{Item: 1, Score: 0.9, Source: hybrid.FromFactorization}, {Item: 2, Score: 0.5}},
			Purchase: []hybrid.Scored{{Item: 2, Score: 0.8}},
		},
		{
			Item:       3,
			View:       []hybrid.Scored{{Item: 0, Score: 0.7}},
			LateFunnel: []hybrid.Scored{{Item: 1, Score: 0.4}},
		},
		{Item: 7}, // an indexed item with all-empty lists
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	items, top := testItems(), []catalog.ItemID{2, 0, 1}
	f, err := Parse(Encode(items, top))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	gotItems, gotTop := f.Materialize()
	if !reflect.DeepEqual(items, gotItems) {
		t.Fatalf("items round trip:\n  in:  %+v\n  out: %+v", items, gotItems)
	}
	if !reflect.DeepEqual(top, gotTop) {
		t.Fatalf("top sellers round trip: in %v out %v", top, gotTop)
	}
}

func TestEncodeCanonical(t *testing.T) {
	top := []catalog.ItemID{5, 6}
	items := testItems()
	// Reversed input order must yield identical bytes: the index is sorted.
	rev := []inference.ItemRecs{items[2], items[1], items[0]}
	a, b := Encode(items, top), Encode(rev, top)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Encode is order-sensitive; the format must be canonical")
	}
	// Duplicate item ids collapse deterministically (first in sorted order).
	dup := append([]inference.ItemRecs{items[0]}, items...)
	f, err := Parse(Encode(dup, top))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.NumItems() != len(items) {
		t.Fatalf("NumItems = %d with a duplicate input, want %d", f.NumItems(), len(items))
	}
}

func TestLookup(t *testing.T) {
	f, err := Parse(Encode(testItems(), []catalog.ItemID{2, 0}))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ls, ok := f.Lookup(0)
	if !ok {
		t.Fatal("Lookup(0) missed an indexed item")
	}
	if ls.View.Len() != 2 || ls.View.Item(0) != 1 || ls.View.Score(0) != 0.9 || ls.View.Source(0) != hybrid.FromFactorization {
		t.Fatalf("view list mismatch: len=%d first=(%d,%v,%v)", ls.View.Len(), ls.View.Item(0), ls.View.Score(0), ls.View.Source(0))
	}
	if ls.Purchase.Len() != 1 || ls.Purchase.Item(0) != 2 {
		t.Fatalf("purchase list mismatch: %+v", ls.Purchase.Materialize())
	}
	if ls.LateFunnel.Len() != 0 {
		t.Fatal("item 0 has no late-funnel list")
	}
	if ls, ok = f.Lookup(3); !ok || ls.LateFunnel.Len() != 1 || ls.LateFunnel.Item(0) != 1 {
		t.Fatalf("Lookup(3) late funnel mismatch (ok=%v)", ok)
	}
	if ls, ok = f.Lookup(7); !ok || ls.View.Len() != 0 {
		t.Fatalf("Lookup(7): ok=%v viewLen=%d, want an empty-list hit", ok, ls.View.Len())
	}
	for _, miss := range []catalog.ItemID{-1, 1, 2, 4, 99} {
		if _, ok := f.Lookup(miss); ok {
			t.Errorf("Lookup(%d) hit; item is not indexed", miss)
		}
	}
	if f.NumTopSellers() != 2 || f.TopSeller(0) != 2 || f.TopSeller(1) != 0 {
		t.Fatalf("top sellers = %v", f.TopSellers())
	}
}

func TestNaNScoresSurvive(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001) // a specific NaN payload
	enc := Encode([]inference.ItemRecs{{Item: 1, View: []hybrid.Scored{{Item: 2, Score: nan}}}}, nil)
	f, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ls, _ := f.Lookup(1)
	if got := math.Float64bits(ls.View.Score(0)); got != 0x7ff8000000000001 {
		t.Fatalf("NaN payload changed: %#x", got)
	}
}

// TestParseRejectsCorruption covers the hostile shapes the serving fleet
// must refuse before they reach the lookup path.
func TestParseRejectsCorruption(t *testing.T) {
	valid := Encode(testItems(), []catalog.ItemID{1, 2})
	flip := func(mutate func(b []byte)) []byte {
		cp := make([]byte, len(valid))
		copy(cp, valid)
		mutate(cp)
		return cp
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      []byte("XXXX not a segment"),
		"short header":   []byte(Magic),
		"truncated tail": valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0xde, 0xad),
		"absurd item count": flip(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], 0xffffff)
		}),
		"absurd top count": flip(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 0xffffff)
		}),
		"index out of order": flip(func(b []byte) {
			// Overwrite the second index entry's id with the first's.
			copy(b[headerSize+indexStride:], b[headerSize:headerSize+4])
		}),
		"offset past entries": flip(func(b []byte) {
			binary.LittleEndian.PutUint32(b[headerSize+4:], 1<<30)
		}),
		"off-by-one offset": flip(func(b []byte) {
			// Nudge the LAST item's offset by one: its block header now
			// reads misaligned count bytes whose lists overrun the section.
			last := headerSize + 2*indexStride + 4
			binary.LittleEndian.PutUint32(b[last:], binary.LittleEndian.Uint32(b[last:])+1)
		}),
		"list count overrun": flip(func(b []byte) {
			// First block's view count inflated past the section.
			entries := headerSize + 3*indexStride
			binary.LittleEndian.PutUint32(b[entries:], 1<<20)
		}),
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted corrupt input", name)
		}
	}
}

func TestParseEmptySegment(t *testing.T) {
	f, err := Parse(Encode(nil, nil))
	if err != nil {
		t.Fatalf("Parse of empty segment: %v", err)
	}
	if f.NumItems() != 0 || f.NumTopSellers() != 0 {
		t.Fatalf("empty segment: items=%d top=%d", f.NumItems(), f.NumTopSellers())
	}
	if _, ok := f.Lookup(0); ok {
		t.Fatal("Lookup hit on an empty segment")
	}
	if items, top := f.Materialize(); items != nil || top != nil {
		t.Fatalf("empty segment materialized to %#v, %#v; want nil, nil", items, top)
	}
}
