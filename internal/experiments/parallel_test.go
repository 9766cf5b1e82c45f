package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write replaces the file whole, and a write whose
// rename fails (the target is a non-empty directory) reports the error
// and leaves no temp file behind for a restart to trip over.
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
