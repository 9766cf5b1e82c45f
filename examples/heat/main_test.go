package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"ic2mpi/internal/scenario"
)

// TestDefaultsMatchScenario ties the solver at the default flags to the
// registered scenario "heat" at procs=8, iters=100: the same virtual time,
// compared as an exact number. solve also checks the distributed field
// against the sequential reference.
func TestDefaultsMatchScenario(t *testing.T) {
	res, err := solve(16, 16, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Run(scenario.Params{Procs: 8, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != want.Elapsed {
		t.Errorf("elapsed %v s, the scenario reads %v s", res.Elapsed, want.Elapsed)
	}

	// run at no flags is the same run.
	var out strings.Builder
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprintf("16x16 hex mesh, 100 iterations on 8 processors: %.4fs (virtual)\n", want.Elapsed)
	if !strings.HasPrefix(out.String(), first) ||
		!strings.HasSuffix(out.String(), "distributed result verified bit-identical to the sequential reference\n") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-procs", "eight"}} {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("run accepted %q", args)
		}
	}
}
