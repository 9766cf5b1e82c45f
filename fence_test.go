package ic2mpi_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulationNeverImportsTime is the determinism contract's fence,
// stated once: no non-test file of a simulation package — everything under
// internal/ except the daemon in internal/server, plus the facade — imports
// "time", so no result, stat or trace byte can come from the host's clock.
func TestSimulationNeverImportsTime(t *testing.T) {
	files := []string{"ic2mpi.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == filepath.Join("internal", "server") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time: simulation code must not be able to read the host's clock", path)
			}
		}
	}
}
