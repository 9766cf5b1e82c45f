package ic2mpi_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt: every .go file of the module is gofmt-formatted, that is,
// go/format renders it to its own bytes. Directories whose names start
// with a dot (.git, .github) hold no module code and are skipped.
func TestGofmt(t *testing.T) {
	t.Parallel()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted (%v); run gofmt -w %s", path, err, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
