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
// payloads unchanged and never see footer bytes. Every stored blob has a
// footer, so a read has exactly two outcomes: the footer verifies and the
// payload is returned, or the read fails with ErrCorrupt. A blob too short
// to hold a footer, or whose footer magic is damaged, is corrupt like any
// other.
//
// The footer detects bit flips anywhere in the blob: in the payload (CRC
// mismatch), in the length echo, in the magic, and in the stored CRC
// itself. Truncation moves the footer window onto other bytes, which then
// fail the magic, length-echo or checksum check. The store keeps a second
// layer regardless: every structured reader (segment.Parse's exact-length
// check, the manifest/model decoders, the journal's per-record CRCs)
// rejects misshapen bytes, and the store classifies any decode failure of
// a referenced blob as the same integrity event as ErrCorrupt.

// FooterLen is the size of the integrity footer appended to every stored
// blob.
const FooterLen = 16

// footerMagic identifies (and versions) the integrity footer.
var footerMagic = []byte("SFT1")

// footerTable is the CRC32 polynomial for payload checksums. Castagnoli
// rather than IEEE so a footer CRC is never confused with the journal's
// per-record IEEE CRCs.
var footerTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a blob's integrity footer does not verify —
// the stored bytes are not the bytes that were written.
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

// footerFields returns the payload length and stored checksum of a
// footered blob, or an error wrapping ErrCorrupt when the blob is too
// short to hold a footer, its magic is wrong, or its length echo
// disagrees with the blob.
func footerFields(blob []byte) (n int, sum uint32, err error) {
	if len(blob) < FooterLen {
		return 0, 0, fmt.Errorf("%d-byte blob cannot hold a %d-byte footer: %w", len(blob), FooterLen, ErrCorrupt)
	}
	f := blob[len(blob)-FooterLen:]
	if string(f[:len(footerMagic)]) != string(footerMagic) {
		return 0, 0, fmt.Errorf("footer magic %q != %q: %w", f[:len(footerMagic)], footerMagic, ErrCorrupt)
	}
	n = len(blob) - FooterLen
	if echo := binary.LittleEndian.Uint64(f[4:12]); echo != uint64(n) {
		return 0, 0, fmt.Errorf("footer length echo %d != payload length %d: %w", echo, n, ErrCorrupt)
	}
	return n, binary.LittleEndian.Uint32(f[12:16]), nil
}

// StripFooter verifies blob's integrity footer and returns the payload
// with the footer removed, or an error wrapping ErrCorrupt when the blob
// has no intact footer or its checksum disagrees with the payload.
func StripFooter(blob []byte) ([]byte, error) {
	n, want, err := footerFields(blob)
	if err != nil {
		return nil, err
	}
	payload := blob[:n]
	if got := crc32.Checksum(payload, footerTable); got != want {
		return nil, fmt.Errorf("payload checksum %08x != footer %08x: %w",
			got, want, ErrCorrupt)
	}
	return payload, nil
}
