package ic2mpi_test

// Migration conservation: across arbitrary valid balancer plans,
// including adversarial seeded-random ones, every node keeps exactly one
// owner, the node count is preserved, and the computed data equals the
// single-address-space reference. The accounting invariants (virtual-time
// conservation and monotonicity) are checked on every cell of the
// differential harness; see checkSampleInvariants in equivalence_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"ic2mpi"
)

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
				// Rotate the worker count across seeds (1, 2, then the
				// automatic count) so the adversarial migrations run on
				// one worker and on several.
				label := fmt.Sprintf("procs=%d perturb=%s seed=%d workers=%d", procs, spec, seed, seed%3)
				cfg := heatConfig(t, procs)
				cfg.KernelWorkers = int(seed % 3)
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
				for v, owner := range res.FinalPartition {
					if owner < 0 || owner >= procs {
						t.Fatalf("%s: node %d owned by out-of-range processor %d", label, v, owner)
					}
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
