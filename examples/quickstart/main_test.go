package main

import (
	"io"
	"slices"
	"strings"
	"testing"

	"ic2mpi/internal/scenario"
)

// TestRowsMatchScenario ties every row to the registered scenario
// "hex64-fine" at the same processor count: the same virtual time and
// edge cut, compared as exact numbers.
func TestRowsMatchScenario(t *testing.T) {
	rows, err := speedup()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		t.Fatal(err)
	}
	var procs []int
	for _, r := range rows {
		procs = append(procs, r.procs)
		want, err := sc.Run(scenario.Params{Procs: r.procs})
		if err != nil {
			t.Fatal(err)
		}
		if r.elapsed != want.Elapsed || r.edgeCut != want.EdgeCut {
			t.Errorf("procs %d: elapsed %v s, edge cut %d; the scenario reads %v s, %d",
				r.procs, r.elapsed, r.edgeCut, want.Elapsed, want.EdgeCut)
		}
	}
	if !slices.Equal(procs, []int{1, 2, 4, 8, 16}) {
		t.Errorf("rows at procs %v, want 1, 2, 4, 8, 16", procs)
	}
}

// TestRunPrintsTable checks run's table: a header, then one line per
// processor count, the first at speedup 1.00.
func TestRunPrintsTable(t *testing.T) {
	var out strings.Builder
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 7 || lines[0] != "64-node hexagonal grid, 20 iterations, fine grain (0.3 ms)" ||
		!strings.HasPrefix(lines[2], "       1 ") || !strings.Contains(lines[2], " 1.00 ") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(io.Discard, []string{"-bogus"}); err == nil {
		t.Fatal("run accepted an undefined flag")
	}
}
