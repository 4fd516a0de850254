package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/dfs"
	"sigmund/internal/interactions"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
)

// v1Segment is a well-formed segment in the retired "SSEG" (v1) format —
// item 1 viewed with item 0 at score 1.0, top sellers [0 1] — that no
// decoder accepts any more.
var v1Segment = []byte("SSEG\x01\x00\x00\x00\x0f\x00\x00\x00\x01\x01\x00\x80\x80\x80\x80\x80\x80\x80\xf8?\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00")

// FuzzSegmentDecode feeds arbitrary bytes to DecodeSegment. Decoding must
// never panic or over-allocate on hostile length prefixes; anything that
// decodes must re-encode canonically (encode → decode → encode is a
// fixed point, byte for byte — scores compare as raw float bits, so NaN
// payloads can't produce false mismatches). Bytes in the retired "SSEG"
// (v1) segment format must be refused.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SSEG"))
	f.Add(v1Segment)
	f.Add([]byte("XXXX definitely not a segment"))
	f.Add(EncodeSegment(&serving.RetailerRecs{Recs: map[catalog.ItemID]inference.ItemRecs{}}))
	f.Add(EncodeSegment(&serving.RetailerRecs{
		Recs: map[catalog.ItemID]inference.ItemRecs{
			0: {Item: 0, View: []hybrid.Scored{{Item: 1, Score: 0.9}, {Item: 2, Score: 0.8}}},
			1: {Item: 1, Purchase: []hybrid.Scored{{Item: 0, Score: 0.5}}},
		},
		TopSellers: []catalog.ItemID{1, 2, 0},
	}))
	// A v1 count field claiming far more items than the bytes can hold.
	f.Add(append([]byte("SSEG"), 0xff, 0xff, 0xff, 0x7f))
	// Footer variants: a segment with the dfs integrity footer still
	// attached (a raw stored image that bypassed Read's strip), a footered
	// image truncated into the footer, and one whose footer magic was
	// flipped — the structural layer must reject all three without panic.
	footered := dfs.AppendFooter(EncodeSegment(&serving.RetailerRecs{
		Recs: map[catalog.ItemID]inference.ItemRecs{
			2: {Item: 2, View: []hybrid.Scored{{Item: 3, Score: 0.7}}},
		},
	}))
	f.Add(footered)
	f.Add(footered[:len(footered)-dfs.FooterLen/2])
	magicFlipped := bytes.Clone(footered)
	magicFlipped[len(magicFlipped)-dfs.FooterLen] ^= 0xff
	f.Add(magicFlipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := DecodeSegment(data)
		if err != nil {
			return // rejected input; the only requirement is no panic
		}
		if bytes.HasPrefix(data, []byte("SSEG")) {
			t.Fatal("decoded a v1 segment")
		}
		if rr == nil || rr.Flat == nil {
			t.Fatal("successful decode returned no flat segment")
		}
		enc := EncodeSegment(rr)
		rr2, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding: %v", err)
		}
		if !bytes.Equal(enc, EncodeSegment(rr2)) {
			t.Fatal("encode → decode → encode is not a fixed point")
		}
	})
}

// FuzzSegmentLookup hammers the SSG2 flat-segment parser and its zero-copy
// lookup path: Parse must reject anything structurally unsound, and
// whatever it accepts must survive lookups and a full blend without
// panicking or reading out of bounds. Seeds cover a valid flat segment,
// a truncated index, an off-by-one entry offset, and a retired v1
// segment, which must be refused.
func FuzzSegmentLookup(f *testing.F) {
	valid := EncodeSegment(&serving.RetailerRecs{
		Recs: map[catalog.ItemID]inference.ItemRecs{
			0: {Item: 0, View: []hybrid.Scored{{Item: 1, Score: 0.9}, {Item: 2, Score: 0.8}}},
			5: {Item: 5, Purchase: []hybrid.Scored{{Item: 0, Score: 0.5}}, LateFunnel: []hybrid.Scored{{Item: 2, Score: 0.4}}},
		},
		TopSellers: []catalog.ItemID{1, 2, 0},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])           // truncated tail
	f.Add(valid[:20])                     // truncated index
	f.Add([]byte(segment.Magic))          // magic only
	f.Add([]byte("SSG2\x01\x00\x00\x00")) // header cut short
	offByOne := bytes.Clone(valid)
	if len(offByOne) > 24 {
		// Bump the first index entry's offset by one.
		off := binary.LittleEndian.Uint32(offByOne[20:24])
		binary.LittleEndian.PutUint32(offByOne[20:24], off+1)
	}
	f.Add(offByOne)
	f.Add(v1Segment)
	// A valid segment with the dfs integrity footer still attached: extra
	// trailing bytes must fail the exact-length check, never parse.
	f.Add(dfs.AppendFooter(valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := segment.Parse(data)
		if err != nil {
			return // rejected input; the only requirement is no panic
		}
		if bytes.HasPrefix(data, []byte("SSEG")) {
			t.Fatal("parsed a v1 segment")
		}
		// Walk the whole index and every list entry: any out-of-bounds
		// layout Parse failed to reject panics here.
		for i := 0; i < fl.NumItems(); i++ {
			id := fl.ItemAt(i)
			ls, ok := fl.Lookup(id)
			if !ok {
				t.Fatalf("indexed item %d not found by Lookup", id)
			}
			for _, l := range []segment.List{ls.View, ls.Purchase, ls.LateFunnel} {
				for j := 0; j < l.Len(); j++ {
					_, _, _ = l.Item(j), l.Score(j), l.Source(j)
				}
			}
		}
		for i := 0; i < fl.NumTopSellers(); i++ {
			_ = fl.TopSeller(i)
		}
		// And the full serve path: blend a context through the flat view.
		srv := serving.NewServer()
		srv.Publish(&serving.Snapshot{
			Version:   1,
			Retailers: map[catalog.RetailerID]*serving.RetailerRecs{"shop": {Flat: fl}},
		})
		ctx := interactions.Context{{Type: interactions.View, Item: 0}}
		if fl.NumItems() > 0 {
			ctx = append(ctx, interactions.Action{Type: interactions.Cart, Item: fl.ItemAt(0)})
		}
		srv.Recommend("shop", ctx, 10)
	})
}
