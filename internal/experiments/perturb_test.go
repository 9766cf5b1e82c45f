package experiments

import (
	"bytes"
	"testing"
)

// TestPerturbedSweepParallelDeterministic is the fault-injection
// acceptance gate for machine-readable sweeps: a sweep that crosses
// perturbation schedules with balancers must encode to byte-identical
// JSON whether runs execute sequentially or on the full worker pool —
// perturbations are pure functions of (seed, iteration, rank), so
// scheduling cannot leak into results. It also asserts the perturbed
// rows actually diverge from the unperturbed ones, so the axis is not
// silently a no-op.
func TestPerturbedSweepParallelDeterministic(t *testing.T) {
	const spec = "procs=2,4;iters=9;balancer=centralized;perturb=none,brownout,chaos@3"
	seq, rep := sweepJSON(t, "hex32-fine", spec, 1)
	for _, parallelism := range []int{4, 8} {
		if par, _ := sweepJSON(t, "hex32-fine", spec, parallelism); !bytes.Equal(seq, par) {
			t.Errorf("perturbed sweep JSON differs between -parallel 1 and -parallel %d:\n%s\n---\n%s", parallelism, seq, par)
		}
	}
	elapsed := map[string]map[int]float64{}
	for _, row := range rep.Rows {
		if elapsed[row.Params.Perturb] == nil {
			elapsed[row.Params.Perturb] = map[int]float64{}
		}
		elapsed[row.Params.Perturb][row.Params.Procs] = row.Elapsed
	}
	for _, spec := range []string{"brownout", "chaos@3"} {
		diverged := false
		for procs, base := range elapsed["none"] {
			if elapsed[spec][procs] != base {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("perturb=%s rows identical to perturb=none at every processor count", spec)
		}
	}
}

// TestAxesPerturbSingle pins the single-combination path -trace uses:
// a one-value perturb axis flows into Params.Perturb.
func TestAxesPerturbSingle(t *testing.T) {
	ax, err := ParseAxes("procs=4;perturb=brownout@7")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ax.Single()
	if err != nil {
		t.Fatal(err)
	}
	if p.Perturb != "brownout@7" || p.Procs != 4 {
		t.Errorf("Single() = %+v", p)
	}
	multi, err := ParseAxes("perturb=none,brownout")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.Single(); err == nil {
		t.Error("multi-value perturb axis accepted as single combination")
	}
}

// TestBalancerTournamentParallelDeterministic: all six balancer settings
// under three perturbation schedules on a uniform and a heterogeneous
// network, the tournament archived as a CI artifact, encode to the same
// JSON on four workers as on one.
func TestBalancerTournamentParallelDeterministic(t *testing.T) {
	const spec = "procs=8;iters=15;balancer=none,centralized,diffusion,worksteal,hierarchical,predictive;perturb=none,brownout,ramp;network=hypercube,hetgrid"
	par, rep := sweepJSON(t, "hex64-coarse", spec, 4)
	if len(rep.Rows) != 36 {
		t.Fatalf("tournament ran %d cells, want 36", len(rep.Rows))
	}
	if seq, _ := sweepJSON(t, "hex64-coarse", spec, 1); !bytes.Equal(par, seq) {
		t.Errorf("tournament JSON differs between -parallel 4 and -parallel 1:\n%s\n---\n%s", par, seq)
	}
}
