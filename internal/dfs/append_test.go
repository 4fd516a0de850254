package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sigmund/internal/faults"
)

// rawImage returns the stored image at path, footer included.
func rawImage(fs *FS, path string) []byte {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return bytes.Clone(fs.files[path])
}

// setImage replaces the stored image at path verbatim.
func setImage(fs *FS, path string, image []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = image
}

// TestAppendMatchesWholeWrite: after k appends the stored image is byte
// for byte the image one Write of the concatenated payload would store,
// and every intermediate image reads back verified.
func TestAppendMatchesWholeWrite(t *testing.T) {
	fs := New()
	want := []byte("head")
	if err := fs.Write("j", want); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 40; k++ {
		chunk := bytes.Repeat([]byte{byte(k)}, k%7) // includes empty appends
		if err := fs.Append("j", chunk); err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
		want = append(want, chunk...)
		if got := rawImage(fs, "j"); !bytes.Equal(got, AppendFooter(want)) {
			t.Fatalf("append %d: stored image differs from AppendFooter of the payload", k)
		}
		got, err := fs.Read("j")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("append %d: Read = %q, %v", k, got, err)
		}
	}
	if verified, corrupt := fs.IntegrityStats(); verified != 40 || corrupt != 0 {
		t.Fatalf("IntegrityStats = %d/%d, want 40 verified", verified, corrupt)
	}
	if w, _ := fs.Stats(); w != int64(len(want)) {
		t.Fatalf("bytes written = %d, want %d (appends count only their own bytes)", w, len(want))
	}
}

// TestAppendRequiresFooteredBlob: Append extends only an existing blob
// with an intact footer, and refuses anything else without touching it.
func TestAppendRequiresFooteredBlob(t *testing.T) {
	fs := New()
	if err := fs.Append("missing", []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Fatalf("append to missing path: %v, want ErrNotExist", err)
	}
	if fs.Exists("missing") {
		t.Fatal("append to a missing path created it")
	}
	setImage(fs, "footerless", []byte("no footer here, just bytes"))
	if err := fs.Write("echo", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	bad := rawImage(fs, "echo")
	bad[len(bad)-FooterLen+4] ^= 1 // length echo
	setImage(fs, "echo", bad)
	for _, path := range []string{"footerless", "echo"} {
		before := rawImage(fs, path)
		if err := fs.Append(path, []byte("more")); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("append to %s: %v, want ErrCorrupt", path, err)
		}
		if !bytes.Equal(rawImage(fs, path), before) {
			t.Fatalf("refused append modified %s", path)
		}
	}
}

// TestAppendedBlobDetectsEveryBitFlip: a single bit flip anywhere in an
// appended image — payload, footer magic, length echo or checksum — reads
// as ErrCorrupt, and Append refuses to extend the damaged blob.
func TestAppendedBlobDetectsEveryBitFlip(t *testing.T) {
	fs := New()
	payload := []byte("first|")
	if err := fs.Write("j", payload); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"second|", "", "third record|", "4"} {
		if err := fs.Append("j", []byte(chunk)); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, chunk...)
	}
	image := rawImage(fs, "j")
	magicAt := len(image) - FooterLen
	for bit := 0; bit < len(image)*8; bit++ {
		flipped := bytes.Clone(image)
		flipped[bit/8] ^= 1 << (bit % 8)
		setImage(fs, "j", flipped)
		if got, err := fs.Read("j"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit %d: Read = %q, %v; want ErrCorrupt", bit, got, err)
		}
		// Append checks only the footer's shape (magic and length echo),
		// not the payload checksum, so only footer flips outside the
		// stored checksum are refused by it.
		if bit/8 >= magicAt && bit/8 < len(image)-4 {
			if err := fs.Append("j", []byte("x")); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d: append to a blob with a damaged footer: %v, want ErrCorrupt", bit, err)
			}
			if !bytes.Equal(rawImage(fs, "j"), flipped) {
				t.Fatalf("bit %d: refused append modified the blob", bit)
			}
		}
	}
	setImage(fs, "j", image)
	if got, err := fs.Read("j"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unflipped image: Read = %q, %v; want %q", got, err, payload)
	}
}

// TestAppendInjectedErrorLeavesImage: an injected OpWrite error fails the
// append before anything changes, and the journal above it retries into
// exactly one copy of the record — on the first append after open (a
// whole Write) and on a later one (an FS.Append).
func TestAppendInjectedErrorLeavesImage(t *testing.T) {
	fs := New()
	if err := fs.Write("blob", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	before := rawImage(fs, "blob")
	fs.SetInjector(faults.NewInjector(1, faults.Rule{
		Ops: []faults.Op{faults.OpWrite}, Kind: faults.Error, EveryNth: 1, Times: 1,
	}))
	if err := fs.Append("blob", []byte("def")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append under injection: %v, want ErrInjected", err)
	}
	if !bytes.Equal(rawImage(fs, "blob"), before) {
		t.Fatal("failed append modified the stored image")
	}
	fs.SetInjector(nil)

	j, _, err := OpenJournal(fs, "j")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 4; i++ {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		if i == 0 || i == 2 {
			fs.SetInjector(faults.NewInjector(1, faults.Rule{
				Ops: []faults.Op{faults.OpWrite}, Kind: faults.Error, EveryNth: 1, Times: 1,
			}))
			img := rawImage(fs, "j")
			if _, err := j.Append(rec); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("record %d under injection: %v", i, err)
			}
			if !bytes.Equal(rawImage(fs, "j"), img) {
				t.Fatalf("record %d: failed append modified the journal file", i)
			}
			fs.SetInjector(nil)
		}
		idx, err := j.Append(rec)
		if err != nil || idx != i {
			t.Fatalf("record %d: idx %d err %v", i, idx, err)
		}
		want = append(want, rec)
	}
	_, recs, err := OpenJournal(fs, "j")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("reopened records %q, want %q", recs, want)
	}
	if got := rawImage(fs, "j"); !bytes.Equal(got, AppendFooter(journalFile(want...))) {
		t.Fatal("journal file is not the footered encoding of its records")
	}
}

// TestAppendCorruptRuleGarblesNewImage: a corruption rule on OpWrite
// applies to an append's new image as it does to a Write, so the next
// read reports ErrCorrupt.
func TestAppendCorruptRuleGarblesNewImage(t *testing.T) {
	fs := New()
	if err := fs.Write("j", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(faults.NewInjector(3, faults.Rule{
		Ops: []faults.Op{faults.OpWrite}, Kind: faults.BitFlip, EveryNth: 1, Times: 1,
	}))
	if err := fs.Append("j", []byte(" and appended")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("j"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read after a bit-flipped append: %v, want ErrCorrupt", err)
	}
}

// TestConcurrentReadAndAppend: readers racing an appender always see a
// verified payload that is a prefix of the final one (run under -race:
// Append extends blobs in place, so Read must copy under the lock).
func TestConcurrentReadAndAppend(t *testing.T) {
	fs := New()
	if err := fs.Write("j", nil); err != nil {
		t.Fatal(err)
	}
	var final []byte
	for i := 0; i < 300; i++ {
		final = append(final, fmt.Sprintf("record-%04d;", i)...)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for off := 0; off < len(final); off += 12 {
			if err := fs.Append("j", final[off:off+12]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := fs.Read("j")
				if err != nil || !bytes.HasPrefix(final, got) || len(got)%12 != 0 {
					t.Errorf("concurrent read: %d bytes, %v", len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, err := fs.Read("j"); err != nil || !bytes.Equal(got, final) {
		t.Fatalf("final read: %d bytes, %v", len(got), err)
	}
}
