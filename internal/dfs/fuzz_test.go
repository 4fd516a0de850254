package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// journalFile builds a well-formed on-disk journal holding the given
// payloads, for seeding the fuzz corpus.
func journalFile(payloads ...[]byte) []byte {
	buf := append([]byte{}, journalMagic...)
	var b4 [4]byte
	for _, p := range payloads {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(p)))
		buf = append(buf, b4[:]...)
		binary.LittleEndian.PutUint32(b4[:], crc32.ChecksumIEEE(p))
		buf = append(buf, b4[:]...)
		buf = append(buf, p...)
	}
	return buf
}

// FuzzIntegrityFooter feeds arbitrary bytes to StripFooter. Whatever the
// bytes, stripping must never panic and has exactly two outcomes: the
// footer verifies and the payload round-trips through AppendFooter
// byte-identically, or the error is the typed ErrCorrupt. A single bit
// flip of a valid footered blob, payload or footer alike, is always
// ErrCorrupt.
func FuzzIntegrityFooter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(AppendFooter(nil))
	f.Add(AppendFooter([]byte("payload")))
	tampered := AppendFooter([]byte("payload"))
	tampered[0] ^= 1
	f.Add(tampered)
	// Footer magic with garbage length/checksum fields.
	f.Add(append(bytes.Repeat([]byte{0xaa}, 8), []byte("SFT1\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := StripFooter(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not ErrCorrupt: %v", err)
			}
		} else if !bytes.Equal(AppendFooter(payload), data) {
			t.Fatal("verified strip does not round-trip through AppendFooter")
		}
		// Single-bit rot of a freshly footered image must always be
		// caught: in the payload, the footer magic, the length echo or
		// the checksum.
		blob := AppendFooter(data)
		magicBit := (len(blob) - FooterLen) * 8
		for _, bit := range []int{0, len(blob)*8 - 1, (len(blob) * 8) / 2, magicBit, magicBit + 8*len(footerMagic)} {
			flipped := bytes.Clone(blob)
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, err := StripFooter(flipped); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d flip: err = %v, want ErrCorrupt", bit, err)
			}
		}
	})
}

// FuzzJournal feeds arbitrary bytes to OpenJournal as a pre-existing
// journal file, then runs the operation script ops against it. Whatever
// the bytes, opening must not panic; when it succeeds, each op byte, by
// its low two bits, does one of:
//
//	0, 1  append a record of op>>2 bytes: it takes the next index, and the
//	      stored image is exactly the footered encoding of every record
//	2     reopen: exactly the recorded records come back
//	3     tear 1+op>>2 bytes off the file's tail and reopen: exactly the
//	      records whose frames survive whole come back, and appends
//	      continue from them
//
// A final reopen must return exactly the expected records.
func FuzzJournal(f *testing.F) {
	f.Add([]byte{}, []byte{0})
	f.Add([]byte("SJL"), []byte{4, 2, 8})
	f.Add(journalMagic, []byte{0, 0, 3, 0})
	f.Add(journalFile([]byte(`{"type":"intent"}`), []byte(`{"type":"done"}`)), []byte{0, 2, 0x13, 1, 2})
	// Torn tail: a frame that claims more bytes than exist.
	f.Add(append(journalFile([]byte("rec-0")), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0), []byte{2, 0, 0x27, 0})
	// Corrupt tail: flip a payload byte after the checksum was computed.
	corrupt := journalFile([]byte("rec-0"), []byte("rec-1"))
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt, []byte{0x40, 0x40, 0xff, 0x40})
	f.Add([]byte("XXXX not a journal"), []byte{0})

	const path = "days/day-0/journal"
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		fs := New()
		if err := fs.Write(path, data); err != nil {
			t.Fatalf("seeding file: %v", err)
		}
		j, recs, err := OpenJournal(fs, path)
		if err != nil {
			if !errors.Is(err, ErrJournalMagic) {
				t.Fatalf("OpenJournal: unexpected error class: %v", err)
			}
			return // not a journal; nothing to recover
		}
		if j.Len() != len(recs) {
			t.Fatalf("Len() = %d, recovered %d records", j.Len(), len(recs))
		}
		reopen := func(what string, want [][]byte) {
			t.Helper()
			var got [][]byte
			j, got, err = OpenJournal(fs, path)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(got) != len(want) || j.Len() != len(want) {
				t.Fatalf("%s: %d records (Len %d), want %d", what, len(got), j.Len(), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: record %d = %q, want %q", what, i, got[i], want[i])
				}
			}
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for step, op := range ops {
			switch op & 3 {
			case 0, 1:
				rec := bytes.Repeat([]byte{byte(step)}, int(op>>2))
				idx, err := j.Append(rec)
				if err != nil {
					t.Fatalf("step %d: append: %v", step, err)
				}
				if idx != len(recs) {
					t.Fatalf("step %d: append index %d, want %d", step, idx, len(recs))
				}
				recs = append(recs, rec)
				if !bytes.Equal(rawImage(fs, path), AppendFooter(journalFile(recs...))) {
					t.Fatalf("step %d: stored image is not the footered encoding of the records", step)
				}
			case 2:
				reopen(fmt.Sprintf("step %d: reopen", step), recs)
			case 3:
				cur, err := fs.Read(path)
				if err != nil {
					t.Fatalf("step %d: read before tear: %v", step, err)
				}
				cut := min(1+int(op>>2), len(cur))
				torn := cur[:len(cur)-cut]
				if err := fs.Write(path, torn); err != nil {
					t.Fatal(err)
				}
				// Frames that end inside the torn file survive; a file
				// shorter than the magic holds none.
				end, keep := len(journalMagic), 0
				for keep < len(recs) && end+journalHeaderLen+len(recs[keep]) <= len(torn) {
					end += journalHeaderLen + len(recs[keep])
					keep++
				}
				if len(torn) < len(journalMagic) {
					keep = 0
				}
				recs = recs[:keep]
				reopen(fmt.Sprintf("step %d: reopen after tearing %d bytes", step, cut), recs)
			}
		}
		reopen("final reopen", recs)
	})
}
