package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"sigmund/internal/faults"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New()
	if err := fs.Write("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Read = %q", got)
	}
	// Mutating the returned slice must not affect the stored file.
	got[0] = 'X'
	again, _ := fs.Read("a/b")
	if string(again) != "hello" {
		t.Fatal("Read returned aliased storage")
	}
	// Writes copy their input too.
	data := []byte("mut")
	fs.Write("m", data)
	data[0] = 'X'
	if got, _ := fs.Read("m"); string(got) != "mut" {
		t.Fatal("Write aliased caller buffer")
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Read("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open err = %v", err)
	}
	if err := fs.Delete("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete err = %v", err)
	}
	if err := fs.Rename("nope", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Rename err = %v", err)
	}
}

func TestCreateCommitsOnClose(t *testing.T) {
	fs := New()
	w := fs.Create("out")
	io.WriteString(w, "part1 ")
	if fs.Exists("out") {
		t.Fatal("file visible before Close")
	}
	io.WriteString(w, "part2")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.Read("out")
	if string(got) != "part1 part2" {
		t.Fatalf("content = %q", got)
	}
	// Double close is fine; write-after-close is not.
	if err := w.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestRenameAtomicReplace(t *testing.T) {
	fs := New()
	fs.Write("src", []byte("new"))
	fs.Write("dst", []byte("old"))
	if err := fs.Rename("src", "dst"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("src") {
		t.Fatal("source survived rename")
	}
	got, _ := fs.Read("dst")
	if string(got) != "new" {
		t.Fatalf("dst = %q", got)
	}
}

func TestListAndDeletePrefix(t *testing.T) {
	fs := New()
	for _, p := range []string{"models/a", "models/b", "data/c", "models/a/sub"} {
		fs.Write(p, []byte("x"))
	}
	got := fs.List("models/")
	if len(got) != 3 || got[0] != "models/a" || got[1] != "models/a/sub" {
		t.Fatalf("List = %v", got)
	}
	if n := fs.DeletePrefix("models/"); n != 3 {
		t.Fatalf("DeletePrefix removed %d", n)
	}
	if fs.NumFiles() != 1 {
		t.Fatalf("NumFiles = %d", fs.NumFiles())
	}
}

func TestStats(t *testing.T) {
	fs := New()
	fs.Write("a", make([]byte, 100))
	fs.Read("a")
	fs.Read("a")
	w, r := fs.Stats()
	if w != 100 || r != 200 {
		t.Fatalf("Stats = %d, %d", w, r)
	}
}

func TestFailureInjection(t *testing.T) {
	fs := New()
	fs.FailEveryNthWrite(3)
	var failures int
	for i := 0; i < 9; i++ {
		if err := fs.Write(fmt.Sprintf("f%d", i), []byte("x")); err != nil {
			if !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("unexpected error %v", err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3", failures)
	}
	fs.FailEveryNthWrite(0)
	if err := fs.Write("ok", []byte("x")); err != nil {
		t.Fatal("injection not disabled")
	}
}

func TestFailureInjectionOnRenamePath(t *testing.T) {
	// FailEveryNthWrite counts Writes and Renames in one stream, so the
	// write-then-rename commit discipline is exercised on both legs.
	fs := New()
	fs.Write("a", []byte("x"))
	fs.Write("b", []byte("y"))
	fs.FailEveryNthWrite(2)
	if err := fs.Rename("a", "a2"); err != nil {
		t.Fatalf("first op failed: %v", err) // op 1 of 2
	}
	err := fs.Rename("b", "b2")
	if !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("second rename err = %v, want injected failure", err)
	}
	// A failed rename must leave the source intact and not create the
	// destination: the commit either happens atomically or not at all.
	if !fs.Exists("b") || fs.Exists("b2") {
		t.Fatal("failed rename mutated the filesystem")
	}
	// The stream keeps counting: next op succeeds, the one after fails.
	if err := fs.Rename("b", "b2"); err != nil {
		t.Fatalf("third op failed: %v", err)
	}
	if err := fs.Write("c", []byte("z")); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("fourth op err = %v, want injected failure", err)
	}
}

func TestSetInjectorScopedRules(t *testing.T) {
	fs := New()
	fs.Write("days/0/ckpt/m/ckpt.0.tmp", []byte("x"))
	fs.Write("other", []byte("y"))
	// Only checkpoint renames fail.
	fs.SetInjector(faults.NewInjector(1, faults.Rule{
		Ops: []faults.Op{faults.OpRename}, PathContains: "/ckpt/", EveryNth: 1,
	}))
	if err := fs.Rename("days/0/ckpt/m/ckpt.0.tmp", "days/0/ckpt/m/ckpt.0"); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("checkpoint rename err = %v", err)
	}
	if err := fs.Rename("other", "other2"); err != nil {
		t.Fatalf("unrelated rename failed: %v", err)
	}
	if err := fs.Write("days/0/ckpt/m/ckpt.1.tmp", []byte("x")); err != nil {
		t.Fatalf("write matched a rename-only rule: %v", err)
	}
	// Removing the injector restores normal operation.
	fs.SetInjector(nil)
	fs.Write("days/0/ckpt/m/ckpt.2.tmp", []byte("x"))
	if err := fs.Rename("days/0/ckpt/m/ckpt.2.tmp", "days/0/ckpt/m/ckpt.2"); err != nil {
		t.Fatalf("rename after removing injector: %v", err)
	}
}

func TestInjectorBitFlipReadReturnsErrCorrupt(t *testing.T) {
	fs := New()
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	fs.Write("model", payload)
	fs.SetInjector(faults.NewInjector(1, faults.Rule{
		Ops: []faults.Op{faults.OpRead}, Kind: faults.BitFlip, EveryNth: 1, Times: 1,
	}))
	// The seeded flip lands in the payload (the payload dwarfs the
	// 16-byte footer), so the checksum catches it and the read surfaces
	// the typed corruption error — never garbled bytes with a nil error.
	if _, err := fs.Read("model"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read err = %v, want ErrCorrupt", err)
	}
	if _, corrupt := fs.IntegrityStats(); corrupt != 1 {
		t.Fatalf("corrupt reads = %d, want 1", corrupt)
	}
	// Read-time corruption never touches the stored file: the rule is
	// exhausted, so the next read sees pristine bytes.
	clean, err := fs.Read("model")
	if err != nil || !bytes.Equal(clean, payload) {
		t.Fatalf("stored file corrupted (err %v)", err)
	}
}

func TestInjectorCorruptKindStillGarbles(t *testing.T) {
	// The Corrupt kind XORs a stripe through the whole stored image.
	// Whatever it hits — payload (checksum mismatch) or footer (damaged
	// magic, length echo or checksum) — the read is typed corruption.
	fs := New()
	fs.Write("model", []byte("pristine model bytes"))
	fs.SetInjector(faults.NewInjector(1, faults.Rule{
		Ops: []faults.Op{faults.OpRead}, Kind: faults.Corrupt, EveryNth: 1,
	}))
	if got, err := fs.Read("model"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read = %q, %v; want ErrCorrupt", got, err)
	}
	fs.SetInjector(nil)
	if clean, _ := fs.Read("model"); string(clean) != "pristine model bytes" {
		t.Fatal("stored file corrupted")
	}
}

func TestFooterRoundTrip(t *testing.T) {
	payload := []byte("some payload")
	blob := AppendFooter(payload)
	if len(blob) != len(payload)+FooterLen {
		t.Fatalf("footered length = %d", len(blob))
	}
	got, err := StripFooter(blob)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("StripFooter = %q, %v", got, err)
	}
	// Empty payloads carry a footer too.
	got, err = StripFooter(AppendFooter(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %q, %v", got, err)
	}
}

func TestFooterLegacyAndCorruptCases(t *testing.T) {
	// Short or footer-less blobs (the pre-footer "legacy" shape) are
	// corrupt: every stored blob has a footer, so one without is damage.
	for _, blob := range [][]byte{nil, []byte("short"), []byte("long enough but no footer magic")} {
		if got, err := StripFooter(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("footerless blob %q: %q, %v; want ErrCorrupt", blob, got, err)
		}
	}
	// A flipped payload bit under an intact footer is typed corruption.
	blob := AppendFooter([]byte("some payload"))
	blob[3] ^= 0x10
	if _, err := StripFooter(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload err = %v, want ErrCorrupt", err)
	}
	// Bytes missing from the middle while the footer survives: the length
	// echo catches it before the checksum runs.
	blob = AppendFooter([]byte("some payload"))
	blob = append(blob[:4], blob[8:]...)
	if _, err := StripFooter(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("shrunken payload err = %v, want ErrCorrupt", err)
	}
}

// TestFooterlessBlobReadsCorrupt: a stored image without a footer — too
// short for one, or long enough but with no footer magic — is never
// returned unverified; Read counts it as corrupt.
func TestFooterlessBlobReadsCorrupt(t *testing.T) {
	fs := New()
	fs.Write("footered", []byte("abc"))
	setImage(fs, "short", []byte("abc"))
	setImage(fs, "footerless", []byte("abcdefghijklmnopqrstuvwxyz"))
	for _, path := range []string{"short", "footerless"} {
		if got, err := fs.Read(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s read = %q, %v; want ErrCorrupt", path, got, err)
		}
	}
	if got, err := fs.Read("footered"); err != nil || string(got) != "abc" {
		t.Fatalf("footered read = %q, %v", got, err)
	}
	if verified, corrupt := fs.IntegrityStats(); verified != 1 || corrupt != 2 {
		t.Fatalf("IntegrityStats = %d, %d; want 1 verified, 2 corrupt", verified, corrupt)
	}
}

func TestAtRestCorruptionDetectedOnEveryRead(t *testing.T) {
	// Simulated at-rest rot: store a footered image with one flipped bit
	// verbatim. Every read must fail the same way — detection is
	// deterministic, not probabilistic.
	fs := New()
	image := AppendFooter([]byte("segment bytes here"))
	image[5] ^= 0x04
	setImage(fs, "rotted", image)
	for i := 0; i < 3; i++ {
		if _, err := fs.Read("rotted"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	if _, corrupt := fs.IntegrityStats(); corrupt != 3 {
		t.Fatalf("corrupt reads = %d, want 3", corrupt)
	}
}

func TestCreateCloseRetainsWriteError(t *testing.T) {
	fs := New()
	w := fs.Create("out")
	io.WriteString(w, "data")
	fs.FailEveryNthWrite(1)
	err := w.Close()
	if !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("Close err = %v, want injected failure", err)
	}
	// A second Close must report the same failure, not silently succeed:
	// callers that defer Close and also check it explicitly would
	// otherwise see the commit vanish.
	if err2 := w.Close(); !errors.Is(err2, ErrInjectedFailure) {
		t.Fatalf("second Close err = %v, want injected failure", err2)
	}
	if fs.Exists("out") {
		t.Fatal("failed Close still committed the file")
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("g%d/f%d", g, i)
				fs.Write(p, []byte{byte(i)})
				if got, err := fs.Read(p); err != nil || got[0] != byte(i) {
					t.Errorf("concurrent read mismatch at %s", p)
					return
				}
				fs.List(fmt.Sprintf("g%d/", g))
			}
		}(g)
	}
	wg.Wait()
	if fs.NumFiles() != 800 {
		t.Fatalf("NumFiles = %d", fs.NumFiles())
	}
}

func TestCheckpointerKeepsOnlyLatest(t *testing.T) {
	fs := New()
	c := NewCheckpointer(fs, "train/model-7")
	for i := 0; i < 5; i++ {
		payload := fmt.Sprintf("state-%d", i)
		path, err := c.Save(func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.Read(path)
		if err != nil || string(got) != payload {
			t.Fatalf("checkpoint %d content %q err %v", i, got, err)
		}
		// Only one committed checkpoint at any time (keep-latest-only GC).
		if cks := SortedCheckpoints(fs, "train/model-7"); len(cks) != 1 {
			t.Fatalf("after save %d: %d checkpoints live: %v", i, len(cks), cks)
		}
	}
	latest, ok := c.Latest()
	if !ok || latest != "train/model-7/ckpt.4" {
		t.Fatalf("Latest = %q, %v", latest, ok)
	}
}

func TestCheckpointerResumesSequence(t *testing.T) {
	fs := New()
	a := NewCheckpointer(fs, "base")
	a.Save(func(w io.Writer) error { w.Write([]byte("one")); return nil })
	// A restarted task constructs a fresh Checkpointer over the same base.
	b := NewCheckpointer(fs, "base")
	latest, ok := b.Latest()
	if !ok {
		t.Fatal("restart lost the checkpoint")
	}
	if got, _ := fs.Read(latest); string(got) != "one" {
		t.Fatalf("restart sees %q", got)
	}
	p, err := b.Save(func(w io.Writer) error { w.Write([]byte("two")); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if p != "base/ckpt.1" {
		t.Fatalf("sequence did not resume: %s", p)
	}
	if cks := SortedCheckpoints(fs, "base"); len(cks) != 1 || cks[0] != "base/ckpt.1" {
		t.Fatalf("old checkpoint not GCed: %v", cks)
	}
}

func TestCheckpointerWriteFailureLeavesPreviousIntact(t *testing.T) {
	fs := New()
	c := NewCheckpointer(fs, "b")
	if _, err := c.Save(func(w io.Writer) error { w.Write([]byte("good")); return nil }); err != nil {
		t.Fatal(err)
	}
	// Producer error: no new checkpoint, old one stays.
	_, err := c.Save(func(w io.Writer) error { return errors.New("producer died") })
	if err == nil {
		t.Fatal("expected producer error")
	}
	latest, ok := c.Latest()
	if !ok {
		t.Fatal("previous checkpoint lost")
	}
	if got, _ := fs.Read(latest); string(got) != "good" {
		t.Fatalf("latest = %q", got)
	}
}

func TestCheckpointerClean(t *testing.T) {
	fs := New()
	c := NewCheckpointer(fs, "x")
	c.Save(func(w io.Writer) error { w.Write([]byte("s")); return nil })
	c.Clean()
	if _, ok := c.Latest(); ok {
		t.Fatal("Clean left checkpoints")
	}
	if fs.NumFiles() != 0 {
		t.Fatal("Clean left files")
	}
}

func TestLatestCheckpointHelper(t *testing.T) {
	fs := New()
	if _, ok := LatestCheckpoint(fs, "none"); ok {
		t.Fatal("found checkpoint in empty fs")
	}
}
