package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Every blob the FS stores carries a self-describing integrity footer so
// that at-rest corruption is a detected, typed event (ErrCorrupt) instead
// of a silent wrong answer. The footer is appended to the payload:
//
//	payload | magic "SFT1" (4B) | payload length u64 LE (8B) | CRC32-C of payload u32 LE (4B)
//
// Write appends it; Read/Open verify and strip it, so callers round-trip
// payloads unchanged and never see footer bytes. Blobs without the magic
// are "legacy" (pre-footer fixtures, hand-written test files) and are
// returned as-is — the escape hatch that keeps old fixtures and
// carry-forward manifests loadable.
//
// The footer detects bit flips in the payload (CRC mismatch) and in the
// length echo. Two corruption shapes can destroy the footer itself —
// truncation that cuts into it, and a flip inside the magic — making the
// blob look legacy. Those are caught by the second layer: every structured
// reader (segment.Parse's exact-length check, the manifest/model/recs
// decoders, the journal's per-record CRCs) rejects the now-misshapen
// bytes, and the store classifies any decode failure of a referenced blob
// as the same integrity event as ErrCorrupt.

// FooterLen is the size of the integrity footer appended to every stored
// blob.
const FooterLen = 16

// footerMagic identifies (and versions) the integrity footer.
var footerMagic = []byte("SFT1")

// footerTable is the CRC32 polynomial for payload checksums. Castagnoli
// rather than IEEE so a footer CRC is never confused with the journal's
// per-record IEEE CRCs.
var footerTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a blob's integrity footer is present but
// does not verify — the stored bytes are not the bytes that were written.
// It is distinct from ErrNotExist: the file is there, but it is poison.
var ErrCorrupt = errors.New("dfs: blob failed integrity verification")

// AppendFooter returns payload with its integrity footer appended. The
// input slice is not modified. Exported for tests and fuzz harnesses that
// need to craft footered (or deliberately mis-footered) blobs; normal
// callers just use FS.Write, which appends the footer itself.
func AppendFooter(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+FooterLen)
	out = append(out, payload...)
	return appendFooterFields(out, len(payload), crc32.Checksum(payload, footerTable))
}

// appendFooterFields appends a footer for a payload of length n with
// checksum sum.
func appendFooterFields(out []byte, n int, sum uint32) []byte {
	out = append(out, footerMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	return binary.LittleEndian.AppendUint32(out, sum)
}

// hasFooter reports whether blob ends in an integrity footer's magic.
func hasFooter(blob []byte) bool {
	return len(blob) >= FooterLen &&
		string(blob[len(blob)-FooterLen:len(blob)-FooterLen+len(footerMagic)]) == string(footerMagic)
}

// footerFields returns the payload length and stored checksum of a blob
// that hasFooter, or an ErrCorrupt error when the length echo disagrees
// with the blob.
func footerFields(blob []byte) (n int, sum uint32, err error) {
	f := blob[len(blob)-FooterLen:]
	n = len(blob) - FooterLen
	if echo := binary.LittleEndian.Uint64(f[4:12]); echo != uint64(n) {
		return 0, 0, fmt.Errorf("footer length echo %d != payload length %d: %w", echo, n, ErrCorrupt)
	}
	return n, binary.LittleEndian.Uint32(f[12:16]), nil
}

// StripFooter verifies blob's integrity footer and returns the payload
// with the footer removed. verified reports whether a footer was present
// and checked: (payload, true, nil) for a good footer, (blob, false, nil)
// for a legacy blob with no footer, and (nil, false, err wrapping
// ErrCorrupt) when the footer is present but the length echo or checksum
// disagrees with the payload.
func StripFooter(blob []byte) (payload []byte, verified bool, err error) {
	if !hasFooter(blob) {
		return blob, false, nil
	}
	n, want, err := footerFields(blob)
	if err != nil {
		return nil, false, err
	}
	payload = blob[:n]
	if got := crc32.Checksum(payload, footerTable); got != want {
		return nil, false, fmt.Errorf("payload checksum %08x != footer %08x: %w",
			got, want, ErrCorrupt)
	}
	return payload, true, nil
}
