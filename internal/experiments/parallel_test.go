package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileAtomic: a write replaces the file whole, with mode 0644;
// concurrent writers of one path all succeed and leave one writer's bytes
// whole; and a write whose rename fails (the target is a non-empty
// directory) reports the error. None leaves a temp file behind for a
// restart to trip over.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.json")
	for _, want := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("stat %v, %v; want mode 0644", fi, err)
	}

	const writers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{'a' + byte(g)}, 4096*(g+1))
			for range rounds {
				if err := WriteFileAtomic(path, data); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := int(got[0] - 'a'); len(got) != 4096*(g+1) || len(bytes.Trim(got, string(got[:1]))) != 0 {
		t.Errorf("after concurrent writes the file is %d bytes, not one writer's whole data", len(got))
	}

	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("%s left behind", e.Name())
		}
	}
}
