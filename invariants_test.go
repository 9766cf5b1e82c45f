package ic2mpi_test

// Property-based invariant harness: a seeded randomized sweep over
// scenario × network × perturbation × balancer asserting the platform's
// accounting and migration invariants hold at every point of the
// configuration space, not just the hand-picked ones.
//
// The invariants:
//
//  1. Virtual-time conservation, per processor, per iteration: the
//     wall-clock delta between consecutive iteration boundaries equals
//     the sum of the phase deltas (compute + overhead + communicate +
//     balance; idle is included inside communicate/balance). Every
//     advancement of a rank's clock must be attributed to a phase — an
//     unattributed Charge or fast-forward shows up here as a leak.
//  2. Monotonicity: a rank's Wtime never decreases across iterations,
//     and no phase delta or idle delta is negative.
//  3. Migration conservation: across arbitrary valid balancer plans —
//     including adversarial seeded-random ones — every node keeps
//     exactly one owner, node count is preserved, and the computed data
//     equals the single-address-space reference.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ic2mpi"
	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// conservationTol is the float slack allowed when comparing a wall-clock
// delta against the telescoped sum of its phase deltas: both are sums of
// differences of nearby float64 clock readings, associated differently.
const conservationTol = 1e-9

// checkSampleInvariants asserts invariants 1 and 2 on a recorded trace.
// Iteration 1 is skipped for conservation only (its wall baseline — the
// post-initialization clock — is not part of the sample record).
func checkSampleInvariants(t *testing.T, label string, rec *trace.Recorder) {
	t.Helper()
	procs, iters := rec.Procs(), rec.Iterations()
	samples := rec.Samples()
	at := func(iter, proc int) trace.Sample { return samples[(iter-1)*procs+proc] }
	for p := 0; p < procs; p++ {
		prevWall := 0.0
		for it := 1; it <= iters; it++ {
			s := at(it, p)
			if s.Iter != it || s.Proc != p {
				t.Fatalf("%s: sample (%d,%d) holds (%d,%d)", label, it, p, s.Iter, s.Proc)
			}
			if s.ComputeS < 0 || s.OverheadS < 0 || s.CommS < 0 || s.BalanceS < 0 || s.IdleS < 0 {
				t.Fatalf("%s: negative phase delta at iter %d proc %d: %+v", label, it, p, s)
			}
			if s.WallS < prevWall {
				t.Fatalf("%s: Wtime decreased at iter %d proc %d: %g -> %g", label, it, p, prevWall, s.WallS)
			}
			if s.IdleS > s.CommS+s.BalanceS+conservationTol {
				t.Fatalf("%s: iter %d proc %d idle %g exceeds comm %g + balance %g",
					label, it, p, s.IdleS, s.CommS, s.BalanceS)
			}
			if it >= 2 {
				delta := s.WallS - prevWall
				sum := s.ComputeS + s.OverheadS + s.CommS + s.BalanceS
				diff := delta - sum
				if diff < 0 {
					diff = -diff
				}
				if diff > conservationTol*(1+delta) {
					t.Fatalf("%s: virtual time leaked at iter %d proc %d: wall delta %g, phase sum %g (diff %g)",
						label, it, p, delta, sum, diff)
				}
			}
			prevWall = s.WallS
		}
	}
}

// TestInvariantRandomizedSweep draws seeded-random configurations
// across every axis family and asserts the accounting invariants on the
// recorded trace of each run.
func TestInvariantRandomizedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	scenarios := []string{"heat", "hex32-fine", "hex64-coarse", "imbalance", "life"}
	networks := []string{"uniform", "hypercube", "mesh2d", "fattree", "hetgrid"}
	perturbs := []string{"none", "brownout", "brownout@3", "links", "ramp", "chaos", "chaos@5"}
	balancers := []string{"none", "centralized", "diffusion", "worksteal", "hierarchical", "predictive"}
	procChoices := []int{2, 4, 8}

	const trials = 16
	for trial := 0; trial < trials; trial++ {
		p := scenario.Params{
			Procs:      procChoices[rng.Intn(len(procChoices))],
			Network:    networks[rng.Intn(len(networks))],
			Perturb:    perturbs[rng.Intn(len(perturbs))],
			Balancer:   balancers[rng.Intn(len(balancers))],
			Iterations: 6 + rng.Intn(9),
			// A short balancing period so every drawn balancer — including
			// the history-fed predictive one — actually plans within the
			// trial's iteration budget.
			BalanceEvery: 3,
		}
		name := scenarios[rng.Intn(len(scenarios))]
		label := fmt.Sprintf("trial %d: %s procs=%d net=%s perturb=%s bal=%s iters=%d",
			trial, name, p.Procs, p.Network, p.Perturb, p.Balancer, p.Iterations)
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		// Every drawn configuration runs under all three kernel names
		// (goroutine at the automatic worker count, pevent at a
		// trial-dependent count of two to four, event at one): the
		// invariants must hold on each, and every per-iteration trace must
		// be byte-identical to the one-worker run's (the equivalence
		// property, here exercised on randomized points instead of the
		// fixed grid of TestKernelEquivalence).
		traces := make(map[string][]byte)
		kernels := []string{"event", "goroutine", "pevent"}
		for _, kernel := range kernels {
			kp := p
			kp.Kernel = kernel
			if kernel == "pevent" {
				kp.KernelWorkers = 2 + trial%3
			}
			rec := &trace.Recorder{}
			kp.Trace = rec
			if _, err := sc.Run(kp); err != nil {
				t.Fatalf("%s kernel=%s: %v", label, kernel, err)
			}
			checkSampleInvariants(t, label+" kernel="+kernel, rec)
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, rec); err != nil {
				t.Fatalf("%s kernel=%s: encode trace: %v", label, kernel, err)
			}
			traces[kernel] = buf.Bytes()
		}
		for _, kernel := range kernels[1:] {
			if !bytes.Equal(traces["event"], traces[kernel]) {
				t.Fatalf("%s: kernel %s diverges from event (%d vs %d bytes)",
					label, kernel, len(traces[kernel]), len(traces["event"]))
			}
		}
	}
}

// TestInvariantResumeEquivalence is the checkpoint/resume half of the
// property harness (invariant 4, ISSUE satellite a): for seeded-random
// configurations across every axis family — scenario, network,
// perturbation, balancer, kernel — a run snapshotted at every fault-epoch
// boundary and restored from any of those snapshots reproduces the
// uninterrupted run exactly: serialized result and stats bytes, excluded
// per-phase times, and per-iteration trace JSONL. Each snapshot takes the
// full encode → decode round trip through internal/checkpoint on the way,
// so the property covers the wire format, not just the in-memory state.
func TestInvariantResumeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	scenarios := []string{"heat", "hex32-fine", "hex64-coarse", "imbalance", "life"}
	networks := []string{"uniform", "hypercube", "mesh2d", "fattree", "hetgrid"}
	perturbs := []string{"none", "brownout", "brownout@3", "links", "ramp", "chaos"}
	balancers := []string{"none", "centralized", "diffusion", "worksteal", "hierarchical", "predictive"}
	kernels := []string{"goroutine", "event", "pevent"}
	procChoices := []int{1, 2, 4, 8}

	const trials = 8
	for trial := 0; trial < trials; trial++ {
		p := scenario.Params{
			Procs:      procChoices[rng.Intn(len(procChoices))],
			Network:    networks[rng.Intn(len(networks))],
			Perturb:    perturbs[rng.Intn(len(perturbs))],
			Balancer:   balancers[rng.Intn(len(balancers))],
			Kernel:     kernels[rng.Intn(len(kernels))],
			Iterations: 4 + rng.Intn(5),
			// A short balancing period so snapshots cut after balancing
			// invocations — including the predictive balancer's history
			// window, which must round-trip the wire format exactly.
			BalanceEvery: 2,
		}
		if p.Kernel == "pevent" {
			// Worker count is a host-side knob; draw one anyway so resume
			// equivalence is exercised across worker layouts.
			p.KernelWorkers = 1 + rng.Intn(4)
		}
		name := scenarios[rng.Intn(len(scenarios))]
		label := fmt.Sprintf("trial %d: %s procs=%d net=%s perturb=%s bal=%s kernel=%s iters=%d",
			trial, name, p.Procs, p.Network, p.Perturb, p.Balancer, p.Kernel, p.Iterations)
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}

		// The golden uninterrupted run, snapshotting every epoch; each
		// snapshot is stored in its serialized form.
		encoded := make(map[int][]byte)
		gp := p
		var grec trace.Recorder
		gp.Trace = &grec
		gp.CheckpointEvery = 1
		gp.CheckpointSink = func(s *platform.RunSnapshot) error {
			if _, dup := encoded[s.Iter]; dup {
				return fmt.Errorf("duplicate snapshot for iteration %d", s.Iter)
			}
			data, err := checkpoint.Encode(checkpoint.Meta{CellKey: label}, s)
			if err != nil {
				return err
			}
			encoded[s.Iter] = data
			return nil
		}
		golden, err := sc.Run(gp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		goldenJSON, err := json.Marshal(golden)
		if err != nil {
			t.Fatal(err)
		}
		var gbuf bytes.Buffer
		if err := trace.WriteJSONL(&gbuf, &grec); err != nil {
			t.Fatal(err)
		}
		if len(encoded) != p.Iterations-1 {
			t.Fatalf("%s: captured %d snapshots, want %d", label, len(encoded), p.Iterations-1)
		}

		for k := 1; k < p.Iterations; k++ {
			data := encoded[k]
			if data == nil {
				t.Fatalf("%s: no snapshot at iteration %d", label, k)
			}
			meta, snap, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode snapshot at iteration %d: %v", label, k, err)
			}
			if meta.CellKey != label {
				t.Fatalf("%s: snapshot carries cell key %q", label, meta.CellKey)
			}
			// Encode is byte-stable: re-encoding the decoded snapshot is a
			// fixed point.
			again, err := checkpoint.Encode(meta, snap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s: snapshot at iteration %d is not an encode/decode fixed point", label, k)
			}
			rp := p
			var rec trace.Recorder
			rp.Trace = &rec
			rp.ResumeFrom = snap
			res, err := sc.Run(rp)
			if err != nil {
				t.Fatalf("%s: resume at iteration %d: %v", label, k, err)
			}
			resJSON, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resJSON, goldenJSON) {
				t.Fatalf("%s: resume at iteration %d diverged\n got %s\nwant %s", label, k, resJSON, goldenJSON)
			}
			if !reflect.DeepEqual(res.Phases, golden.Phases) {
				t.Fatalf("%s: resume at iteration %d: phase times diverged\n got %v\nwant %v",
					label, k, res.Phases, golden.Phases)
			}
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, &rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), gbuf.Bytes()) {
				t.Fatalf("%s: resume at iteration %d: trace JSONL differs from uninterrupted run", label, k)
			}
		}
	}
}

// randomPlanBalancer emits arbitrary *valid* plans drawn from a seeded
// stream: each invocation pairs up a random subset of a random
// permutation of the processors, so every structural rule of
// validatePlan holds by construction while the busy/idle choices are
// adversarial (they ignore actual load entirely).
type randomPlanBalancer struct {
	rng   *rand.Rand
	procs int
}

func (b *randomPlanBalancer) Name() string { return "random-plan" }

func (b *randomPlanBalancer) Plan(pg ic2mpi.ProcGraph) []ic2mpi.Pair {
	perm := b.rng.Perm(b.procs)
	pairs := b.rng.Intn(b.procs/2 + 1)
	out := make([]ic2mpi.Pair, 0, pairs)
	for i := 0; i < pairs; i++ {
		out = append(out, ic2mpi.Pair{Busy: perm[2*i], Idle: perm[2*i+1]})
	}
	return out
}

// TestInvariantMigrationConservation runs the heat workload under the
// adversarial random-plan balancer — with the migration guard off, so
// every feasible planned move executes — across processor counts and
// perturbation schedules, and asserts migration conservation: the final
// partition assigns every node exactly one in-range owner, per-node
// bookkeeping stays consistent (CheckInvariants), and the computed data
// is exactly the sequential reference. The gather itself enforces the
// "node set preserved" half: it fails if any node is reported by zero
// or two owners.
func TestInvariantMigrationConservation(t *testing.T) {
	migrated := 0
	for _, procs := range []int{4, 8} {
		for _, spec := range []string{"none", "brownout", "chaos"} {
			for seed := int64(1); seed <= 3; seed++ {
				// Rotate kernel names across seeds so the adversarial
				// migration property is exercised under all three.
				kernel := ic2mpi.KernelGoroutine
				switch seed % 3 {
				case 0:
					kernel = ic2mpi.KernelEvent
				case 2:
					kernel = ic2mpi.KernelParallelEvent
				}
				label := fmt.Sprintf("procs=%d perturb=%s seed=%d kernel=%v", procs, spec, seed, kernel)
				cfg := heatConfig(t, procs)
				cfg.Kernel = kernel
				cfg.KernelWorkers = 2
				cfg.Iterations = 14
				cfg.BalanceEvery = 2
				cfg.DisableMigrationGuard = true
				cfg.CheckInvariants = true
				cfg.Balancer = &randomPlanBalancer{rng: rand.New(rand.NewSource(seed)), procs: procs}
				model, err := ic2mpi.NewNetworkModel("hypercube", procs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Network, err = ic2mpi.PerturbNetwork(model, spec, procs, cfg.Iterations)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ic2mpi.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				migrated += res.Migrations
				if len(res.FinalPartition) != cfg.Graph.NumVertices() {
					t.Fatalf("%s: final partition has %d entries for %d nodes",
						label, len(res.FinalPartition), cfg.Graph.NumVertices())
				}
				counts := make([]int, procs)
				for v, owner := range res.FinalPartition {
					if owner < 0 || owner >= procs {
						t.Fatalf("%s: node %d owned by out-of-range processor %d", label, v, owner)
					}
					counts[owner]++
				}
				total := 0
				for _, c := range counts {
					total += c
				}
				if total != cfg.Graph.NumVertices() {
					t.Fatalf("%s: ownership counts sum to %d, want %d", label, total, cfg.Graph.NumVertices())
				}
				want, err := ic2mpi.RunSequential(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.FinalData[v] != want[v] {
						t.Fatalf("%s: node %d: distributed %v, sequential %v", label, v, res.FinalData[v], want[v])
					}
				}
			}
		}
	}
	if migrated == 0 {
		t.Fatal("random-plan suite executed no migrations; the property is vacuous")
	}
}
