package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Journal is a durable, append-only record log over the shared filesystem
// — the coordinator's write-ahead log for a pipeline day. Records are
// framed as
//
//	[4-byte LE payload length][4-byte LE CRC32 (IEEE) of payload][payload]
//
// after a 4-byte magic header. The simulated FS commits writes and
// appends atomically, so a torn tail cannot occur here; the framing
// defends the format against real filesystems, where a crashed writer can
// leave a partial final record. OpenJournal truncates any undecodable
// suffix (short frame, bad checksum) rather than failing: journal
// consumers must treat records as completion markers for work whose
// artifacts are already durable, so losing a suffix only re-runs work,
// never corrupts it.
//
// The first Append after OpenJournal writes the whole good prefix plus
// its record with FS.Write, which also drops any truncated tail; every
// later Append extends the file with FS.Append, so a record costs
// O(record), not O(file). The file stays one footered, verified blob
// throughout.
type Journal struct {
	fs   *FS
	path string

	mu sync.Mutex
	// prefix is the encoded good prefix (magic header included) still to
	// be written; nil once the file holds it.
	prefix []byte
	frame  []byte // scratch for one framed record
	n      int    // decoded record count
}

// journalMagic versions the on-disk format.
var journalMagic = []byte("SJL1")

// ErrJournalMagic reports a file that is not a journal (or a journal from
// an incompatible format version).
var ErrJournalMagic = errors.New("dfs: bad journal magic")

const journalHeaderLen = 8 // length + crc per record

// OpenJournal opens (or prepares to create) the journal at path and
// returns it together with the payloads already committed there, in
// append order. A missing file yields an empty journal. A trailing
// undecodable region — torn frame or checksum mismatch — is truncated:
// the next Append rewrites the file from the last good record.
func OpenJournal(fs *FS, path string) (*Journal, [][]byte, error) {
	j := &Journal{fs: fs, path: path}
	j.prefix = append(j.prefix, journalMagic...)
	data, err := fs.Read(path)
	if errors.Is(err, ErrNotExist) {
		return j, nil, nil
	}
	if err != nil {
		// This includes ErrCorrupt: the whole-file footer did not verify,
		// so even the "good prefix" cannot be trusted — unlike a torn tail,
		// which only loses a suffix. Propagate so the caller re-runs the
		// day from scratch instead of resuming from poisoned state.
		return nil, nil, fmt.Errorf("opening journal %s: %w", path, err)
	}
	recs, good, err := decodeJournal(data)
	if err != nil {
		return nil, nil, fmt.Errorf("opening journal %s: %w", path, err)
	}
	// A file shorter than the header is treated as empty: the prefix
	// stays the bare magic.
	if good >= len(journalMagic) {
		j.prefix = data[:good]
	}
	j.n = len(recs)
	return j, recs, nil
}

// decodeJournal walks the framed records in data and returns the decoded
// payloads plus the byte offset of the last cleanly framed record. Any
// suffix that does not decode — including a file too short to hold the
// magic — is simply not counted; the caller truncates there.
func decodeJournal(data []byte) (recs [][]byte, good int, err error) {
	if len(data) < len(journalMagic) {
		return nil, 0, nil
	}
	for i, b := range journalMagic {
		if data[i] != b {
			return nil, 0, ErrJournalMagic
		}
	}
	off := len(journalMagic)
	good = off
	for off+journalHeaderLen <= len(data) {
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + journalHeaderLen + int(length)
		if end < off || end > len(data) {
			break // torn tail: frame claims more bytes than exist
		}
		payload := data[off+journalHeaderLen : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail: discard from here
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		recs = append(recs, cp)
		off = end
		good = off
	}
	return recs, good, nil
}

// Append durably commits one record and returns its zero-based index. A
// failed write or append leaves both the file and the in-memory state
// unchanged, so a retried Append of the same payload cannot double-commit.
func (j *Journal) Append(payload []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.frame = binary.LittleEndian.AppendUint32(j.frame[:0], uint32(len(payload)))
	j.frame = binary.LittleEndian.AppendUint32(j.frame, crc32.ChecksumIEEE(payload))
	j.frame = append(j.frame, payload...)
	if j.prefix != nil {
		n0 := len(j.prefix)
		j.prefix = append(j.prefix, j.frame...)
		if err := j.fs.Write(j.path, j.prefix); err != nil {
			j.prefix = j.prefix[:n0]
			return 0, err
		}
		j.prefix = nil
	} else if err := j.fs.Append(j.path, j.frame); err != nil {
		return 0, err
	}
	idx := j.n
	j.n++
	return idx, nil
}

// Len returns the number of committed records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Path returns the journal's filesystem path.
func (j *Journal) Path() string { return j.path }
