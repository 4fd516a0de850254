// Package segment implements the flat, offset-indexed on-disk segment
// format ("SSG2") the serving fleet reads directly from the loaded byte
// slice. It is the only on-disk encoding of a tenant's recommendations:
// the store's per-generation segments and the day journal's replay blob
// are both SSG2. Replicas serve straight from the bytes, with no
// per-tenant map reconstruction at bulk load and no per-query decode. A
// segment is one immutable blob per retailer per generation:
//
//	header   magic "SSG2" | itemCount u32 | topCount u32 | entriesLen u32
//	index    itemCount × (itemID u32 | offset u32)   sorted by itemID
//	entries  itemCount blocks, each:
//	           viewCount u32 | purchaseCount u32 | lateFunnelCount u32
//	           then (view+purchase+lateFunnel) entries of 13 bytes:
//	           itemID u32 | scoreBits u64 | source u8
//	top      topCount × u32 top-seller item ids
//
// All integers are little-endian. Lookup is a binary search over the index
// plus sub-slice references into the entries section — zero per-rec decode,
// zero allocation. Parse validates the whole structure up front (lengths,
// index order, every block's bounds), so the serving hot path never
// re-checks.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
)

// Magic identifies an SSG2 flat segment.
const Magic = "SSG2"

// ErrMalformed is wrapped by every Parse rejection. It lets callers
// classify a structural decode failure: errors.Is(err, ErrMalformed)
// marks the second layer of corruption detection, behind the dfs
// integrity footer.
var ErrMalformed = errors.New("segment: malformed")

const (
	headerSize  = 16
	indexStride = 8
	entryStride = 13 // itemID u32 | scoreBits u64 | source u8
	blockHeader = 12 // three u32 list counts
)

// isFlat reports whether data starts with the SSG2 magic.
func isFlat(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Flat is a validated zero-copy view over an SSG2 segment. The byte slice is
// retained and must stay immutable for the Flat's lifetime (segments are
// immutable by contract).
type Flat struct {
	data    []byte
	index   []byte
	entries []byte
	top     []byte
	count   int
}

// Encode serializes item rec lists plus the top-sellers fallback into the
// canonical SSG2 form: items sorted by id, duplicates dropped (first wins),
// blocks packed in index order. Encoding the same logical content always
// yields identical bytes.
func Encode(items []inference.ItemRecs, top []catalog.ItemID) []byte {
	sorted := make([]inference.ItemRecs, len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Item < sorted[j].Item })
	uniq := sorted[:0]
	for i, ir := range sorted {
		if i > 0 && ir.Item == uniq[len(uniq)-1].Item {
			continue
		}
		uniq = append(uniq, ir)
	}
	entriesLen := 0
	for _, ir := range uniq {
		entriesLen += blockHeader + entryStride*(len(ir.View)+len(ir.Purchase)+len(ir.LateFunnel))
	}
	buf := make([]byte, 0, headerSize+indexStride*len(uniq)+entriesLen+4*len(top))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(uniq)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(top)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(entriesLen))
	off := uint32(0)
	for _, ir := range uniq {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ir.Item))
		buf = binary.LittleEndian.AppendUint32(buf, off)
		off += uint32(blockHeader + entryStride*(len(ir.View)+len(ir.Purchase)+len(ir.LateFunnel)))
	}
	for _, ir := range uniq {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ir.View)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ir.Purchase)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ir.LateFunnel)))
		for _, list := range [][]hybrid.Scored{ir.View, ir.Purchase, ir.LateFunnel} {
			for _, s := range list {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Item))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Score))
				buf = append(buf, byte(s.Source))
			}
		}
	}
	for _, id := range top {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// Parse validates an SSG2 segment and returns its zero-copy view. Every
// structural invariant is checked here — section lengths must account for
// the input exactly, index ids must be strictly increasing, and every
// block (header plus all three lists) must lie inside the entries section
// — so lookups can trust the layout without per-request validation.
func Parse(data []byte) (*Flat, error) {
	if len(data) < headerSize || !isFlat(data) {
		return nil, fmt.Errorf("%w: not a flat segment (%d bytes)", ErrMalformed, len(data))
	}
	count := binary.LittleEndian.Uint32(data[4:8])
	topCount := binary.LittleEndian.Uint32(data[8:12])
	entriesLen := binary.LittleEndian.Uint32(data[12:16])
	need := uint64(headerSize) + indexStride*uint64(count) + uint64(entriesLen) + 4*uint64(topCount)
	if need != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrMalformed, need, len(data))
	}
	f := &Flat{
		data:    data,
		index:   data[headerSize : headerSize+indexStride*int(count)],
		entries: data[headerSize+indexStride*int(count) : headerSize+indexStride*int(count)+int(entriesLen)],
		top:     data[len(data)-4*int(topCount):],
		count:   int(count),
	}
	prev := int64(-1)
	for i := 0; i < f.count; i++ {
		id := binary.LittleEndian.Uint32(f.index[i*indexStride:])
		if id > math.MaxInt32 {
			// Item ids are non-negative int32s; a high-bit id would turn
			// negative in ItemAt and become unreachable through Lookup.
			return nil, fmt.Errorf("%w: index id %d overflows item id at entry %d", ErrMalformed, id, i)
		}
		if int64(id) <= prev {
			return nil, fmt.Errorf("%w: index not strictly increasing at entry %d", ErrMalformed, i)
		}
		prev = int64(id)
		off := uint64(binary.LittleEndian.Uint32(f.index[i*indexStride+4:]))
		if off+blockHeader > uint64(len(f.entries)) {
			return nil, fmt.Errorf("%w: item %d block header out of bounds (offset %d)", ErrMalformed, i, off)
		}
		vc := uint64(binary.LittleEndian.Uint32(f.entries[off:]))
		pc := uint64(binary.LittleEndian.Uint32(f.entries[off+4:]))
		lc := uint64(binary.LittleEndian.Uint32(f.entries[off+8:]))
		if off+blockHeader+entryStride*(vc+pc+lc) > uint64(len(f.entries)) {
			return nil, fmt.Errorf("%w: item %d lists overrun entries section (offset %d, %d recs)", ErrMalformed, i, off, vc+pc+lc)
		}
	}
	return f, nil
}

// Bytes returns the segment's canonical encoding (the parsed slice itself).
func (f *Flat) Bytes() []byte { return f.data }

// NumItems returns how many query items the segment indexes.
func (f *Flat) NumItems() int { return f.count }

// ItemAt returns the i-th indexed item id (items are sorted ascending).
func (f *Flat) ItemAt(i int) catalog.ItemID {
	return catalog.ItemID(binary.LittleEndian.Uint32(f.index[i*indexStride:]))
}

// Lookup binary-searches the index and returns zero-copy views of the
// item's three rec lists. The returned value references the segment's
// bytes; no decoding or allocation happens.
func (f *Flat) Lookup(id catalog.ItemID) (ItemLists, bool) {
	if id < 0 {
		return ItemLists{}, false
	}
	want := uint32(id)
	lo, hi := 0, f.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if binary.LittleEndian.Uint32(f.index[mid*indexStride:]) < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == f.count || binary.LittleEndian.Uint32(f.index[lo*indexStride:]) != want {
		return ItemLists{}, false
	}
	off := binary.LittleEndian.Uint32(f.index[lo*indexStride+4:])
	b := f.entries[off:]
	vc := int(binary.LittleEndian.Uint32(b))
	pc := int(binary.LittleEndian.Uint32(b[4:]))
	lc := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[blockHeader:]
	var ls ItemLists
	ls.View = List{b[:entryStride*vc]}
	b = b[entryStride*vc:]
	ls.Purchase = List{b[:entryStride*pc]}
	b = b[entryStride*pc:]
	ls.LateFunnel = List{b[:entryStride*lc]}
	return ls, true
}

// NumTopSellers returns the length of the top-sellers fallback list.
func (f *Flat) NumTopSellers() int { return len(f.top) / 4 }

// TopSeller returns the i-th top seller without materializing the list.
func (f *Flat) TopSeller(i int) catalog.ItemID {
	return catalog.ItemID(binary.LittleEndian.Uint32(f.top[i*4:]))
}

// TopSellers materializes the fallback list (for tests and inspection).
func (f *Flat) TopSellers() []catalog.ItemID {
	if f.NumTopSellers() == 0 {
		return nil
	}
	out := make([]catalog.ItemID, f.NumTopSellers())
	for i := range out {
		out[i] = f.TopSeller(i)
	}
	return out
}

// Materialize decodes the whole segment back into heap form: exactly the
// items and top sellers segment.Encode was given, when those were in
// canonical order (ascending ids, no duplicates), with nil for every
// empty list. The pipeline reloads a committed recs blob through it;
// serving never does.
func (f *Flat) Materialize() ([]inference.ItemRecs, []catalog.ItemID) {
	if f.count == 0 {
		return nil, f.TopSellers()
	}
	items := make([]inference.ItemRecs, 0, f.count)
	for i := 0; i < f.count; i++ {
		ls, _ := f.Lookup(f.ItemAt(i))
		items = append(items, inference.ItemRecs{
			Item:       f.ItemAt(i),
			View:       ls.View.Materialize(),
			Purchase:   ls.Purchase.Materialize(),
			LateFunnel: ls.LateFunnel.Materialize(),
		})
	}
	return items, f.TopSellers()
}

// ItemLists is one query item's three surfaces, each a zero-copy view.
type ItemLists struct {
	View       List
	Purchase   List
	LateFunnel List
}

// List is a zero-copy view of one ranked rec list: a sub-slice of the
// segment's entries section, entryStride bytes per rec.
type List struct {
	data []byte
}

// Len returns the number of recs in the list.
func (l List) Len() int { return len(l.data) / entryStride }

// Item returns the i-th rec's item id.
func (l List) Item(i int) catalog.ItemID {
	return catalog.ItemID(binary.LittleEndian.Uint32(l.data[i*entryStride:]))
}

// Score returns the i-th rec's score (raw float bits, NaN-preserving).
func (l List) Score(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(l.data[i*entryStride+4:]))
}

// Source returns the i-th rec's hybrid source tag.
func (l List) Source(i int) hybrid.Source {
	return hybrid.Source(l.data[i*entryStride+12])
}

// Materialize decodes the list into heap form (nil when empty).
func (l List) Materialize() []hybrid.Scored {
	n := l.Len()
	if n == 0 {
		return nil
	}
	out := make([]hybrid.Scored, n)
	for i := range out {
		out[i] = hybrid.Scored{Item: l.Item(i), Score: l.Score(i), Source: l.Source(i)}
	}
	return out
}
