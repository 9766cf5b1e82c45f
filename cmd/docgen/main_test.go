package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ic2mpi/internal/experiments"
)

// docgen runs the command on args and returns its exit code, stdout and
// stderr. run sets experiments.Parallelism; the test's value is restored.
func docgen(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	old := experiments.Parallelism
	t.Cleanup(func() { experiments.Parallelism = old })
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDocsUpToDate: every generated region of docs/ is what the code
// renders now, so -check exits 0. In a copy of docs/ with one generated
// digit changed, -check exits 1 and names the stale file, and a plain run
// rewrites the copy back to the checked-in bytes.
func TestDocsUpToDate(t *testing.T) {
	if code, out, errs := docgen(t, "-check", "-docs", filepath.Join("..", "..", "docs"), "-parallel", "4"); code != 0 {
		t.Fatalf("docgen -check exited %d: the generated docs are stale; run `go run ./cmd/docgen`\n%s%s", code, out, errs)
	}

	dir := t.TempDir()
	for name := range experiments.DocFiles() {
		src, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const name = "scenarios.md"
	path := filepath.Join(dir, name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first digit after the first begin marker's line lies inside a
	// generated region.
	stale := bytes.Clone(want)
	at := bytes.Index(stale, []byte(experiments.DocgenBegin))
	at += bytes.IndexByte(stale[at:], '\n')
	at += bytes.IndexAny(stale[at:], "0123456789")
	stale[at] = '0' + (stale[at]-'0'+1)%10
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := docgen(t, "-check", "-docs", dir)
	if code != 1 || !strings.Contains(out, path+": STALE") {
		t.Errorf("-check on a stale copy exited %d, want 1 naming %s\n%s", code, path, out)
	}
	if code, out, errs := docgen(t, "-docs", dir); code != 0 || !strings.Contains(out, path+": regenerated") {
		t.Errorf("regenerating the stale copy exited %d\n%s%s", code, out, errs)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("regenerated %s differs from docs/%s (%v)", path, name, err)
	}
}

// TestNegativeParallelIsAUsageError: -parallel takes a count, and a
// negative one exits 2 before anything renders, as in cmd/experiments.
func TestNegativeParallelIsAUsageError(t *testing.T) {
	code, out, errs := docgen(t, "-parallel", "-2", "-docs", t.TempDir())
	if code != 2 || !strings.Contains(errs, "-parallel: must be >= 0") || out != "" {
		t.Errorf("-parallel -2 exited %d, stdout %q, stderr %q; want 2 and the count rule", code, out, errs)
	}
}
