// Package dfs simulates the shared distributed filesystem (GFS in the
// paper) that every Sigmund pipeline stage reads and writes: training data,
// model checkpoints, trained models, config records, and materialized
// recommendations.
//
// The simulation provides exactly the contract the pipeline depends on —
// whole-file writes with atomic visibility, atomic appends, atomic rename,
// list-by-prefix, and shared access from concurrently running tasks — plus
// failure injection so fault-tolerance paths can be tested
// deterministically.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sigmund/internal/faults"
)

// ErrNotExist is returned when a path has no file.
var ErrNotExist = errors.New("dfs: file does not exist")

// ErrInjectedFailure is returned by operations killed by failure
// injection. It aliases faults.ErrInjected so errors.Is matches through
// either package's sentinel.
var ErrInjectedFailure = faults.ErrInjected

// FS is an in-memory shared filesystem. All methods are safe for
// concurrent use.
type FS struct {
	mu    sync.RWMutex
	files map[string][]byte

	// inj is the user-installed fault injector; nthWrite backs the
	// FailEveryNthWrite convenience knob. Both are consulted.
	inj      atomic.Pointer[faults.Injector]
	nthWrite atomic.Pointer[faults.Injector]

	bytesWritten int64
	bytesRead    int64

	// Integrity accounting: reads that verified a footer and reads
	// rejected with ErrCorrupt.
	verifiedReads int64
	corruptReads  int64
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string][]byte)}
}

// SetInjector installs a fault injector consulted on Write, Rename, and
// Read (nil removes it). Error rules fail the operation with
// ErrInjectedFailure, Latency rules delay it. Corrupt/BitFlip/Truncate
// rules garble the stored (write) or returned (read) image — footer
// included — so the damage is exactly what footer verification exists to
// catch: a corrupted read surfaces as ErrCorrupt, not as garbled payload
// bytes.
func (f *FS) SetInjector(in *faults.Injector) {
	f.inj.Store(in)
}

// FailEveryNthWrite arranges for every nth Write/Rename to fail with
// ErrInjectedFailure (0 disables). Deterministic, for tests; it is a thin
// wrapper over a faults.Rule and composes with SetInjector.
func (f *FS) FailEveryNthWrite(n int) {
	if n <= 0 {
		f.nthWrite.Store(nil)
		return
	}
	f.nthWrite.Store(faults.NewInjector(uint64(n), faults.Rule{
		Ops:      []faults.Op{faults.OpWrite, faults.OpRename},
		EveryNth: n,
	}))
}

// inject consults both injectors before an operation.
func (f *FS) inject(op faults.Op, path string) error {
	if err := f.nthWrite.Load().Before(op, path); err != nil {
		return err
	}
	return f.inj.Load().Before(op, path)
}

// Write stores data at path atomically, replacing any existing file. The
// stored image is the payload plus its integrity footer; fault-injected
// corruption is applied to the image after the footer is computed, so
// rot-at-write is detectable by the next verified read.
func (f *FS) Write(path string, data []byte) error {
	if err := f.inject(faults.OpWrite, path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	image := AppendFooter(data)
	image = f.inj.Load().CorruptData(faults.OpWrite, path, image)
	f.mu.Lock()
	f.files[path] = image
	f.mu.Unlock()
	atomic.AddInt64(&f.bytesWritten, int64(len(data)))
	return nil
}

// Append extends the footered blob at path with data, atomically. The
// blob is extended in place and its footer rewritten: the new checksum is
// the stored one extended over data, so the cost is O(len(data)), not
// O(file), and the blob stays fully verified by the next Read. Injection
// rules apply as for Write — an error rule fails the append with the
// stored image untouched, and a corruption rule garbles the new image.
// A missing path returns ErrNotExist; a blob without an intact footer
// (too short, a damaged magic, or a length echo that disagrees with the
// blob) returns ErrCorrupt and is left untouched.
func (f *FS) Append(path string, data []byte) error {
	if err := f.inject(faults.OpWrite, path); err != nil {
		return fmt.Errorf("appending %s: %w", path, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	image, ok := f.files[path]
	if !ok {
		return fmt.Errorf("appending %s: %w", path, ErrNotExist)
	}
	n, sum, err := footerFields(image)
	if err != nil {
		return fmt.Errorf("appending %s: %w", path, err)
	}
	image = append(image[:n], data...)
	image = appendFooterFields(image, n+len(data), crc32.Update(sum, footerTable, data))
	f.files[path] = f.inj.Load().CorruptData(faults.OpWrite, path, image)
	atomic.AddInt64(&f.bytesWritten, int64(len(data)))
	return nil
}

// Read returns a copy of the file's payload at path, verifying and
// stripping the integrity footer. A blob whose footer fails verification
// returns an error wrapping ErrCorrupt. The copy is taken under the lock
// because Append extends blobs in place.
func (f *FS) Read(path string) ([]byte, error) {
	if err := f.inject(faults.OpRead, path); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	f.mu.RLock()
	data, ok := f.files[path]
	cp := make([]byte, len(data))
	copy(cp, data)
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("reading %s: %w", path, ErrNotExist)
	}
	cp = f.inj.Load().CorruptData(faults.OpRead, path, cp)
	payload, err := StripFooter(cp)
	if err != nil {
		atomic.AddInt64(&f.corruptReads, 1)
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	atomic.AddInt64(&f.verifiedReads, 1)
	atomic.AddInt64(&f.bytesRead, int64(len(payload)))
	return payload, nil
}

// Open returns a reader over the file's contents at open time (snapshot
// semantics: later writes do not affect the reader).
func (f *FS) Open(path string) (io.Reader, error) {
	data, err := f.Read(path)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// Create returns a writer whose content becomes visible atomically at
// Close — the write-then-commit discipline MapReduce output relies on.
func (f *FS) Create(path string) io.WriteCloser {
	return &fileWriter{fs: f, path: path}
}

type fileWriter struct {
	fs       *FS
	path     string
	buf      bytes.Buffer
	done     bool
	closeErr error
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, errors.New("dfs: write after close")
	}
	return w.buf.Write(p)
}

// Close commits the buffered content. A repeated Close returns the first
// Close's result, so a failed commit cannot be masked by a deferred
// second Close returning nil.
func (w *fileWriter) Close() error {
	if w.done {
		return w.closeErr
	}
	w.done = true
	w.closeErr = w.fs.Write(w.path, w.buf.Bytes())
	return w.closeErr
}

// Exists reports whether path holds a file.
func (f *FS) Exists(path string) bool {
	f.mu.RLock()
	_, ok := f.files[path]
	f.mu.RUnlock()
	return ok
}

// Delete removes the file at path; deleting a missing file is an error.
func (f *FS) Delete(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; !ok {
		return fmt.Errorf("deleting %s: %w", path, ErrNotExist)
	}
	delete(f.files, path)
	return nil
}

// Rename atomically moves a file, replacing any existing destination. This
// is the primitive checkpointing builds on.
func (f *FS) Rename(from, to string) error {
	if err := f.inject(faults.OpRename, from); err != nil {
		return fmt.Errorf("renaming %s: %w", from, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[from]
	if !ok {
		return fmt.Errorf("renaming %s: %w", from, ErrNotExist)
	}
	f.files[to] = data
	delete(f.files, from)
	return nil
}

// List returns the paths with the given prefix, sorted.
func (f *FS) List(prefix string) []string {
	f.mu.RLock()
	out := make([]string, 0, 8)
	for p := range f.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	f.mu.RUnlock()
	sort.Strings(out)
	return out
}

// DeletePrefix removes every file under prefix and returns the count.
func (f *FS) DeletePrefix(prefix string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for p := range f.files {
		if strings.HasPrefix(p, prefix) {
			delete(f.files, p)
			n++
		}
	}
	return n
}

// Stats reports cumulative traffic counters (payload bytes, excluding
// integrity footers).
func (f *FS) Stats() (bytesWritten, bytesRead int64) {
	return atomic.LoadInt64(&f.bytesWritten), atomic.LoadInt64(&f.bytesRead)
}

// IntegrityStats reports cumulative read-verification outcomes: reads
// whose footer verified and reads rejected with ErrCorrupt.
func (f *FS) IntegrityStats() (verified, corrupt int64) {
	return atomic.LoadInt64(&f.verifiedReads), atomic.LoadInt64(&f.corruptReads)
}

// NumFiles returns the number of stored files.
func (f *FS) NumFiles() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.files)
}
