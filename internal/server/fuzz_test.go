package server

// FuzzJobSpec hardens the daemon's input boundary: DecodeJobSpec parses
// attacker-controlled JSON into an experiments.Axes sweep space, and
// must never panic and never accept a spec that violates its own
// invariants (unknown format, over-cap sweep, over-cap cell, over-cap
// traced cell, multi-cell trace, non-normalizable cell). Seed corpus: testdata/fuzz/FuzzJobSpec.

import (
	"fmt"
	"strings"
	"testing"

	"ic2mpi/internal/scenario"
)

// wrappedProductSpec is a job body under the 1 MiB cap whose sweep names
// 65536 values on each of four axes: 2^64 cells, a product that wraps an
// int to 0.
func wrappedProductSpec() []byte {
	axis := func(name, v string) string { return name + "=" + strings.Repeat(v+",", 1<<16-1) + v }
	return []byte(`{"scenario":"heat","sweep":"` + axis("procs", "1") + ";" + axis("iters", "2") + ";" +
		axis("partitioner", "bf") + ";" + axis("balancer", "none") + `"}`)
}

// TestDecodeJobSpecRefusesWrappedProduct: the cell cap must fire on a
// product too large to count, not read it as an empty sweep.
func TestDecodeJobSpecRefusesWrappedProduct(t *testing.T) {
	body := wrappedProductSpec()
	if len(body) > maxBodyBytes {
		t.Fatalf("body is %d bytes, over the %d-byte cap it is meant to pass", len(body), maxBodyBytes)
	}
	_, _, err := DecodeJobSpec(body, 4096)
	if err == nil || !strings.Contains(err.Error(), "daemon cap is 4096") {
		t.Fatalf("got %v, want the daemon cap error", err)
	}
}

// TestDecodeJobSpecCapsTheTracedCell: a traced spec that names no
// processor count runs one cell at the scenario's default, so that cell is
// the one the trace-sample cap is checked on, not the 16-processor cell of
// the default processor sweep, which the job never runs. An untraced cell
// allocates nothing per iteration up front, so its iteration count is not
// capped at all.
func TestDecodeJobSpecCapsTheTracedCell(t *testing.T) {
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	iters := maxTraceSamples/16 + 1 // over the cap at 16 processors
	if np, err := sc.Normalize(scenario.Params{Iterations: iters}); err != nil || np.Procs*iters > maxTraceSamples {
		t.Fatalf("heat's default cell (%+v, %v) is over the cap too; the test needs one under it", np, err)
	}
	sweep := fmt.Sprintf(`"sweep":"iters=%d"`, iters)
	if _, _, err := DecodeJobSpec([]byte(`{"scenario":"heat",`+sweep+`,"trace":true}`), 4096); err != nil {
		t.Errorf("traced: refused with %v, want its one default-processor cell accepted", err)
	}
	sweep16 := fmt.Sprintf(`"sweep":"procs=16;iters=%d"`, iters)
	if _, _, err := DecodeJobSpec([]byte(`{"scenario":"heat",`+sweep16+`,"trace":true}`), 4096); err == nil || !strings.Contains(err.Error(), "trace samples") {
		t.Errorf("traced at 16 processors: got %v, want the trace-sample cap", err)
	}
	if _, _, err := DecodeJobSpec([]byte(`{"scenario":"heat",`+sweep16+`}`), 4096); err != nil {
		t.Errorf("untraced at 16 processors: refused with %v, want it accepted", err)
	}
}

func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{"scenario":"heat","sweep":"procs=1,2;iters=4"}`,
		`{"scenario":"hex64-fine"}`,
		`{"scenario":"heat","axes":{"procs":[1,2,4],"networks":["uniform","hypercube"]},"format":"csv"}`,
		`{"scenario":"imbalance","sweep":"procs=4;iters=8","trace":true}`,
		`{"scenario":"heat","sweep":"procs=1;balancer=centralized;perturb=brownout:2:4:0.5"}`,
		`{"scenario":"nope"}`,
		`{"scenario":"heat","sweep":"procs=0"}`,
		`{"scenario":"heat","sweep":"procs=2000000"}`,
		`{"scenario":"heat","sweep":"procs=1024;iters=1048576","trace":true}`,
		`{"scenario":"heat","format":"xml"}`,
		`{"scenario":"heat","axes":{"iterations":[-1]}}`,
		`{"scenario":"heat","sweep":"procs=1,2","trace":true}`,
		`{"scenario":"heat","axes":{"procs":[1]},"sweep":"procs=2"}`,
		`{"scenario":"heat"} {}`,
		`[1,2,3]`,
		`{"scenario":"heat","bogus":true}`,
		`not json at all`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(wrappedProductSpec())
	const maxCells = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, sc, err := DecodeJobSpec(body, maxCells)
		if err != nil {
			return
		}
		// Accepted specs must uphold the invariants the executor relies on.
		switch spec.Format {
		case "json", "csv", "text":
		default:
			t.Fatalf("accepted spec with format %q", spec.Format)
		}
		if n := spec.Axes.Size(); !spec.Trace && (n < 1 || n > maxCells) {
			t.Fatalf("accepted spec with %d cells (cap %d)", n, maxCells)
		}
		cells := spec.Axes.Cells()
		if spec.Trace {
			p, err := spec.Axes.Single()
			if err != nil {
				t.Fatalf("accepted multi-cell trace spec: %v", err)
			}
			cells = []scenario.Params{p} // the one cell a traced job runs
		}
		for _, p := range cells {
			np, err := sc.Normalize(p)
			if err != nil {
				t.Fatalf("accepted spec with non-normalizable cell %+v: %v", p, err)
			}
			if np.Procs > maxProcs {
				t.Fatalf("accepted spec with a %d-processor cell (cap %d)", np.Procs, maxProcs)
			}
			if spec.Trace && np.Iterations > maxTraceSamples/np.Procs {
				t.Fatalf("accepted a traced %d x %d cell (cap %d trace samples)", np.Procs, np.Iterations, maxTraceSamples)
			}
		}
	})
}
