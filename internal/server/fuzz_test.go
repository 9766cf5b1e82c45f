package server

// FuzzJobSpec hardens the daemon's input boundary: DecodeJobSpec parses
// attacker-controlled JSON into an experiments.Axes sweep space, and
// must never panic and never accept a spec that violates its own
// invariants (unknown format, over-cap sweep, over-cap cell, multi-cell
// trace, non-normalizable cell). Seed corpus: testdata/fuzz/FuzzJobSpec.

import (
	"strings"
	"testing"
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
		`{"scenario":"heat","sweep":"procs=65536;iters=2000000000"}`,
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
		if n := spec.Axes.Size(); n < 1 || n > maxCells {
			t.Fatalf("accepted spec with %d cells (cap %d)", n, maxCells)
		}
		if spec.Trace {
			if _, err := spec.Axes.Single(); err != nil {
				t.Fatalf("accepted multi-cell trace spec: %v", err)
			}
		}
		for _, p := range spec.Axes.Cells() {
			np, err := sc.Normalize(p)
			if err != nil {
				t.Fatalf("accepted spec with non-normalizable cell %+v: %v", p, err)
			}
			if np.Procs > maxProcs {
				t.Fatalf("accepted spec with a %d-processor cell (cap %d)", np.Procs, maxProcs)
			}
			if np.Iterations > maxCellWork/np.Procs {
				t.Fatalf("accepted spec with a %d x %d rank-iteration cell (cap %d)", np.Procs, np.Iterations, maxCellWork)
			}
		}
	})
}
