package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOnlyAPIImportsInternal holds the benchmark to its pinned surface: only
// api.go may import the simulator's packages, and no file may name the
// mechanisms a later subtraction pass plans to delete.
func TestOnlyAPIImportsInternal(t *testing.T) {
	files, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range files {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "ic2mpi/internal/") && name != "api.go" {
					t.Errorf("%s imports %s; only api.go may import the simulator", name, imp.Path.Value)
				}
			}
			if name == "bench_test.go" {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, banned := range []string{"ReuseBuffers", "unpooled", "ForceSparseState", "sparseStateThreshold", "eventKernel"} {
				if bytes.Contains(src, []byte(banned)) {
					t.Errorf("%s names %s, which the benchmark must not depend on", name, banned)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks that BENCHMARK.json is what the tables in
// metrics.go generate and that it stays within the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(benchmarkJSON(), '\n'); !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -benchmark-json > BENCHMARK.json`")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// checkEmitted asserts that res carries exactly the metrics of defs, each
// once and with its declared unit, and that the contract line agrees.
func checkEmitted(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
	}
	got := map[string]metric{}
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", res.Workload, m.Name)
		}
		got[m.Name] = m
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", res.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
		if m.Null == "" && m.Value != m.Value {
			t.Errorf("%s: %s is NaN", res.Workload, d.Name)
		}
		delete(got, d.Name)
	}
	for name := range got {
		t.Errorf("%s: %s emitted but not declared in metrics.go", res.Workload, name)
	}

	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(res.lastLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line: %v", res.Workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Errorf("%s: last line lacks a key or has %d metrics, want %d", res.Workload, len(line.Metrics), len(defs))
	}
}

// TestSmoke runs every workload untraced and traced at the smallest size.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, smoke: true, nproc: 2, out: t.TempDir(), log: io.Discard, layers: &layerCache{}}
	for _, w := range workloads {
		cfg.workload = w.name
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			checkEmitted(t, res, defs)
		}
	}

	// The omission rule, driven by an injected processor count: on a
	// single-core host the two scaling metrics are null, never numbers.
	cfg.workload, cfg.trace, cfg.nproc = "machine_sparse", true, 1
	res, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, perLayer)
	nulls := 0
	for _, m := range res.Metrics {
		if m.Null != "" {
			nulls++
			if m.Name != "experiments.parallel_efficiency" && m.Name != "mpi.pevent_scaling_2w" {
				t.Errorf("%s withheld: %s", m.Name, m.Null)
			}
		}
	}
	if nulls != 2 {
		t.Errorf("%d metrics withheld on a single-core host, want 2", nulls)
	}
	if line := res.lastLine(); !strings.Contains(line, `"mpi.pevent_scaling_2w":{"value":null,"unit":"ratio"}`) {
		t.Errorf("withheld metric is not null in the last line: %s", line)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want 3.5 24 160", q1, q2, q3)
	}
}
