package ic2mpi_test

// The differential harness (McKeeman, "Differential Testing for
// Software", 1998): how many host workers run the ranks, and whether a
// run was cut at an epoch boundary and resumed from its snapshot, never
// changes a byte of what a cell reports. One oracle, checkCell, states
// that contract; TestEquivalence runs it over one table of cells.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// workerCounts are the host worker counts every cell runs at: one, the
// reference; two and eight, which split the ranks (eight also exceeds
// GOMAXPROCS on most hosts); and 0, the automatic min(GOMAXPROCS, procs).
var workerCounts = []int{1, 2, 8, 0}

// conservationTol is the float slack allowed when comparing a wall-clock
// delta against the telescoped sum of its phase deltas: both are sums of
// differences of nearby float64 clock readings, associated differently.
const conservationTol = 1e-9

// checkSampleInvariants asserts the accounting invariants on a recorded
// trace. Monotonicity: a rank's Wtime never decreases, and no phase or
// idle delta is negative. Conservation, per processor and iteration: the
// wall-clock delta between consecutive iteration boundaries equals the
// sum of the phase deltas (idle is included inside communicate and
// balance), so an unattributed Charge or fast-forward shows up as a leak.
// Iteration 1 is exempt from conservation: its baseline, the
// post-initialization clock, is not in the record. Anchor: a processor's
// clock starts at 0, so each sample's Wtime is at least the running sum of
// its processor's phase deltas; a sample stamped before some of the phases
// it reports, even by the same amount every iteration, falls below it.
func checkSampleInvariants(t *testing.T, label string, rec *trace.Recorder) {
	t.Helper()
	procs := rec.Procs()
	wall := make([]float64, procs)  // each processor's clock at its previous sample
	spent := make([]float64, procs) // each processor's phase deltas so far
	for i, s := range rec.Samples() {
		it, p := i/procs+1, i%procs
		phases := s.ComputeS + s.OverheadS + s.CommS + s.BalanceS
		spent[p] += phases
		switch delta := s.WallS - wall[p]; {
		case s.Iter != it || s.Proc != p:
			t.Fatalf("%s: sample (%d,%d) holds (%d,%d)", label, it, p, s.Iter, s.Proc)
		case min(s.ComputeS, s.OverheadS, s.CommS, s.BalanceS, s.IdleS) < 0:
			t.Fatalf("%s: negative phase delta at iter %d proc %d: %+v", label, it, p, s)
		case delta < 0:
			t.Fatalf("%s: Wtime decreased at iter %d proc %d: %g -> %g", label, it, p, wall[p], s.WallS)
		case s.IdleS > s.CommS+s.BalanceS+conservationTol:
			t.Fatalf("%s: iter %d proc %d idle %g exceeds comm %g + balance %g", label, it, p, s.IdleS, s.CommS, s.BalanceS)
		case it >= 2 && math.Abs(delta-phases) > conservationTol*(1+delta):
			t.Fatalf("%s: virtual time leaked at iter %d proc %d: wall delta %g, phase sum %g",
				label, it, p, delta, phases)
		case s.WallS < spent[p]-conservationTol*(1+spent[p]):
			t.Fatalf("%s: iter %d proc %d stamped at %g, before the %g of phases its processor has reported",
				label, it, p, s.WallS, spent[p])
		}
		wall[p] = s.WallS
	}
}

// runBytes is what one run of a cell shows.
type runBytes struct {
	result, trace []byte
	phases        []float64
	snaps         map[int][]byte // encoded snapshot by cut; nil when not checkpointing
}

// diff names the first artifact in which got differs from want, or
// returns "". Snapshots are compared only when both runs took them.
func (want runBytes) diff(got runBytes) string {
	switch {
	case !bytes.Equal(got.result, want.result):
		return fmt.Sprintf("result JSON\n got %s\nwant %s", got.result, want.result)
	case !reflect.DeepEqual(got.phases, want.phases):
		return fmt.Sprintf("phase times\n got %v\nwant %v", got.phases, want.phases)
	case !bytes.Equal(got.trace, want.trace):
		return fmt.Sprintf("trace JSONL (%d vs %d bytes)", len(got.trace), len(want.trace))
	case got.snaps != nil && want.snaps != nil && !reflect.DeepEqual(got.snaps, want.snaps):
		return "encoded snapshots"
	}
	return ""
}

// checkCell is the oracle. It runs the cell at one worker, traced and
// checkpointed at every epoch, on inputs built for that run alone; every
// other run takes its inputs from one shared memo (scenario.Inputs). The
// runs at 2 and 8 workers, checkpointed too, must give the same bytes,
// snapshots included; so must the run at the automatic count, which has
// checkpointing off. Each of these traces must keep the accounting
// invariants. Each snapshot at one of cuts (every epoch boundary when cuts
// is empty) must re-encode to its own bytes, and resuming from it at a
// worker count rotated by the cut must reproduce the result, phases and
// trace. Custom-runner scenarios cannot checkpoint: they skip the
// snapshot steps.
func checkCell(t *testing.T, sc scenario.Scenario, p scenario.Params, cuts ...int) {
	t.Helper()
	p, err := sc.Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	key, err := experiments.CellKey(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Runner != nil {
		cuts = nil
	} else if len(cuts) == 0 {
		for k := 1; k < p.Iterations; k++ {
			cuts = append(cuts, k)
		}
	}
	// The reference runs through Scenario.Run; the rest share a memo, so
	// each row also compares shared inputs with fresh ones.
	runCell := sc.Run
	// run runs the cell, traced, at workers from resume (nil: from the
	// start). With snapAt non-nil it also checkpoints every epoch, in order
	// and each once, and keeps the snapshots at snapAt, encoded under key.
	run := func(workers int, resume *platform.RunSnapshot, snapAt []int) runBytes {
		label := fmt.Sprintf("%s workers=%d", key, workers)
		var out runBytes
		rec, rp, taken := &trace.Recorder{}, p, 0
		rp.KernelWorkers, rp.ResumeFrom, rp.Trace = workers, resume, rec
		if snapAt != nil {
			out.snaps = make(map[int][]byte)
			rp.CheckpointEvery = 1
			rp.CheckpointSink = func(s *platform.RunSnapshot) (err error) {
				if taken++; s.Iter != taken {
					return fmt.Errorf("snapshot %d is of iteration %d", taken, s.Iter)
				}
				if slices.Contains(snapAt, s.Iter) {
					out.snaps[s.Iter], err = checkpoint.Encode(checkpoint.Meta{CellKey: key}, s)
				}
				return err
			}
		}
		res, err := runCell(rp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if snapAt != nil && taken != p.Iterations-1 {
			t.Fatalf("%s: %d snapshots, want one at each of %d epoch boundaries", label, taken, p.Iterations-1)
		}
		if resume == nil {
			checkSampleInvariants(t, label, rec)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, rec); err != nil {
			t.Fatalf("%s: encode trace: %v", label, err)
		}
		out.result, err = json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out.trace, out.phases = buf.Bytes(), res.Phases
		return out
	}
	ref := run(1, nil, cuts)
	runCell = scenario.NewInputs(sc).Run
	for _, w := range workerCounts[1:] {
		snapAt := cuts
		if w == 0 {
			snapAt = nil // the automatic count runs with checkpointing off
		}
		if d := ref.diff(run(w, nil, snapAt)); d != "" {
			t.Fatalf("%s: workers=%d, checkpointing %v, diverges from one worker in its %s", key, w, snapAt != nil, d)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(ref.snaps)) {
		meta, s, err := checkpoint.Decode(ref.snaps[k])
		if err != nil {
			t.Fatalf("%s: decode snapshot at iteration %d: %v", key, k, err)
		}
		if meta.CellKey != key {
			t.Fatalf("%s: snapshot carries cell key %q", key, meta.CellKey)
		}
		if again, err := checkpoint.Encode(meta, s); err != nil || !bytes.Equal(again, ref.snaps[k]) {
			t.Fatalf("%s: snapshot at iteration %d is not an encode/decode fixed point (%v)", key, k, err)
		}
		w := workerCounts[k%len(workerCounts)]
		if d := ref.diff(run(w, s, nil)); d != "" {
			t.Fatalf("%s: resumed at iteration %d on %d workers, diverges in its %s", key, k, w, d)
		}
	}
}

// TestEquivalence runs checkCell over one table of cells, each with the
// cuts it resumes from (none: every cut): one subtest per scenario, one
// parallel subtest per row.
func TestEquivalence(t *testing.T) {
	type cell struct {
		p    scenario.Params
		cuts []int
	}
	cells := make(map[string][]cell)
	add := func(name string, p scenario.Params, cuts ...int) {
		cells[name] = append(cells[name], cell{p, cuts})
	}

	// The grid: every registered scenario across processor counts,
	// interconnects and fault injection, with every balancing strategy
	// rotated through it (one per (procs, network, perturb) point) at a
	// period short enough to plan twice in six iterations. Each row
	// resumes from one cut, rotated along the scenario's rows.
	balancers := balance.Names()
	for _, sc := range scenario.List() {
		for _, procs := range []int{2, 4, 8, 16} {
			for _, network := range []string{"uniform", "hypercube", "mesh2d"} {
				for _, perturb := range []string{"none", "brownout"} {
					if sc.Runner != nil && perturb != fault.NameNone {
						continue // custom runners do not support perturbation
					}
					p := scenario.Params{Procs: procs, Network: network, Perturb: perturb, Iterations: 6}
					if sc.Runner == nil { // custom runners ignore the balancer axis
						p.Balancer = balancers[(procs+3*len(network)+5*len(perturb))%len(balancers)]
						p.BalanceEvery = 2
					}
					add(sc.Name, p, 1+len(cells[sc.Name])%5)
				}
			}
		}
	}

	// Two seeded random sets over every axis family, resumed from every
	// cut. The second once drew a kernel name (and, for pevent, a worker
	// count after the iterations); the draws stay so its cells do.
	scenarios := []string{"heat", "hex32-fine", "hex64-coarse", "imbalance", "life"}
	networks := []string{"uniform", "hypercube", "mesh2d", "fattree", "hetgrid"}
	balancerNames := []string{"none", "centralized", "diffusion", "worksteal", "hierarchical", "predictive"}
	pick := func(rng *rand.Rand, from ...string) string { return from[rng.Intn(len(from))] }
	for _, set := range []struct {
		seed                    int64
		trials                  int
		procs                   []int
		perturbs                []string
		iters, itersSpan, every int
		drawsKernel             bool
	}{
		{20260730, 16, []int{2, 4, 8}, []string{"none", "brownout", "brownout@3", "links", "ramp", "chaos", "chaos@5"}, 6, 9, 3, false},
		{20260807, 8, []int{1, 2, 4, 8}, []string{"none", "brownout", "brownout@3", "links", "ramp", "chaos"}, 4, 5, 2, true},
	} {
		rng := rand.New(rand.NewSource(set.seed))
		for range set.trials {
			p := scenario.Params{
				Procs:    set.procs[rng.Intn(len(set.procs))],
				Network:  pick(rng, networks...),
				Perturb:  pick(rng, set.perturbs...),
				Balancer: pick(rng, balancerNames...),
			}
			kernel := ""
			if set.drawsKernel {
				kernel = pick(rng, "goroutine", "event", "pevent")
			}
			p.Iterations, p.BalanceEvery = set.iters+rng.Intn(set.itersSpan), set.every
			if kernel == "pevent" {
				rng.Intn(4)
			}
			add(pick(rng, scenarios...), p)
		}
	}

	// hex64-coarse across networks and fault schedules, resumed from
	// every cut.
	for _, procs := range []int{2, 8} {
		for _, network := range []string{"uniform", "mesh2d", "hetgrid"} {
			for _, perturb := range []string{"none", "brownout", "links"} {
				add("hex64-coarse", scenario.Params{Procs: procs, Network: network, Perturb: perturb, Iterations: 6})
			}
		}
	}

	// The predictive balancer forecasts from a window of past balancing
	// rounds, which a snapshot must carry: balancing every second of eight
	// iterations, on a machine whose speed changes under it, every middle
	// cut has at least two rounds before it and one after.
	for _, procs := range []int{4, 8} {
		for _, perturb := range []string{"brownout", "ramp", "chaos"} {
			add("imbalance", scenario.Params{Procs: procs, Perturb: perturb, Balancer: "predictive", BalanceEvery: 2, Iterations: 8})
		}
	}

	for _, sc := range scenario.List() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for i, c := range cells[sc.Name] {
				t.Run(fmt.Sprint(i), func(t *testing.T) {
					t.Parallel()
					checkCell(t, sc, c.p, c.cuts...)
				})
			}
		})
	}
}
