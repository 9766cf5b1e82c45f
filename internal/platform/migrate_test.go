package platform

import (
	"strings"
	"testing"
	"testing/quick"

	"ic2mpi/internal/fault"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/netmodel"
)

// scriptedBalancer replays fixed plans, one per invocation.
type scriptedBalancer struct {
	plans [][]Pair
	call  int
}

func (s *scriptedBalancer) Name() string { return "scripted" }
func (s *scriptedBalancer) Plan(ProcGraph) []Pair {
	if s.call >= len(s.plans) {
		return nil
	}
	p := s.plans[s.call]
	s.call++
	return p
}

// skewedBalancer labels proc 0 busy toward proc 1 on every invocation
// whenever they communicate — a maximally aggressive (but legal) plan.
type skewedBalancer struct{}

func (skewedBalancer) Name() string { return "skewed" }
func (skewedBalancer) Plan(pg ProcGraph) []Pair {
	if len(pg.Times) < 2 || pg.Comm[0][1] == 0 {
		return nil
	}
	return []Pair{{Busy: 0, Idle: 1}}
}

// thresholdBalancer reimplements the 25% heuristic locally to drive real
// migrations in integration tests without importing the balance package
// (which would create an import cycle in white-box tests).
type thresholdBalancer struct{}

func (thresholdBalancer) Name() string { return "threshold" }
func (thresholdBalancer) Plan(pg ProcGraph) []Pair {
	var pairs []Pair
	busy := map[int]bool{}
	for i := range pg.Times {
		over := false
		idle, idleT := -1, 0.0
		ok := true
		for j := range pg.Times {
			if i == j || pg.Comm[i][j] == 0 {
				continue
			}
			over = true
			if pg.Times[j] > 0 && (pg.Times[i]-pg.Times[j])/pg.Times[j] < 0.25 {
				ok = false
				break
			}
			if idle == -1 || pg.Times[j] < idleT {
				idle, idleT = j, pg.Times[j]
			}
		}
		if over && ok && idle != -1 {
			pairs = append(pairs, Pair{Busy: i, Idle: idle})
			busy[i] = true
		}
	}
	out := pairs[:0]
	for _, p := range pairs {
		if !busy[p.Idle] {
			out = append(out, p)
		}
	}
	return out
}

func TestMigrationPreservesResults(t *testing.T) {
	// Forced migrations every 2 iterations must not change computed data.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	cfg.Iterations = 12
	cfg.BalanceEvery = 2
	cfg.DisableMigrationGuard = true
	cfg.Balancer = &scriptedBalancer{plans: [][]Pair{
		{{Busy: 0, Idle: 1}},
		{{Busy: 1, Idle: 2}},
		{{Busy: 2, Idle: 3}, {Busy: 0, Idle: 1}},
		{{Busy: 3, Idle: 0}},
		{{Busy: 1, Idle: 0}, {Busy: 2, Idle: 3}},
	}}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations == 0 {
		t.Fatal("no migrations executed")
	}
	if err := graphPartitionValid(res.FinalPartition, 4); err != nil {
		t.Fatal(err)
	}
}

func graphPartitionValid(part []int, k int) error {
	for _, p := range part {
		if p < 0 || p >= k {
			return &invalidPart{p}
		}
	}
	return nil
}

type invalidPart struct{ p int }

func (e *invalidPart) Error() string { return "invalid owner " + string(rune('0'+e.p)) }

func TestRepeatedMigrationSameDirection(t *testing.T) {
	// Draining nodes from proc 0 repeatedly: eventually proc 0 refuses to
	// give up its last node (chooseMigratingNode returns -1) and the run
	// must still complete correctly.
	g := hexGrid(t, 2, 4) // 8 nodes
	cfg := baseConfig(g, 2)
	cfg.InitialPartition = []int{0, 0, 0, 1, 1, 1, 1, 1}
	cfg.Iterations = 30
	cfg.BalanceEvery = 2
	cfg.DisableMigrationGuard = true
	cfg.Balancer = skewedBalancer{}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations < 2 {
		t.Fatalf("expected at least 2 migrations, got %d", res.Migrations)
	}
	count0 := 0
	for _, p := range res.FinalPartition {
		if p == 0 {
			count0++
		}
	}
	if count0 < 1 {
		t.Fatalf("proc 0 fully drained: partition %v", res.FinalPartition)
	}
}

// imbalancedGrain averages like averaging, but nodes 16..31 — proc 1's under
// the four-way block partition of an 8x8 grid — cost ten times the rest.
func imbalancedGrain(id graph.NodeID, iter, _ int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
	sum := int64(self.(IntData))
	for _, nb := range nbrs {
		sum += int64(nb.Data.(IntData))
	}
	cost := 0.3e-3
	if int(id) >= 16 && int(id) < 32 {
		cost = 3e-3
	}
	return IntData(sum / int64(len(nbrs)+1)), cost
}

func TestDynamicBalancingImprovesImbalancedRun(t *testing.T) {
	// Only proc 1's nodes run coarse: proc 1 does >25% more work than both
	// its neighbors, so the 25% heuristic must migrate work off it and beat
	// the static run.
	g := hexGrid(t, 8, 8)
	static := baseConfig(g, 4)
	static.Node = imbalancedGrain
	static.Iterations = 40
	staticRes, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	dynamic := static
	dynamic.Balancer = thresholdBalancer{}
	dynamic.BalanceEvery = 5
	dynamicRes, err := Run(dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if dynamicRes.Migrations == 0 {
		t.Fatal("dynamic run performed no migrations")
	}
	if dynamicRes.Elapsed >= staticRes.Elapsed {
		t.Fatalf("dynamic %.4fs not faster than static %.4fs", dynamicRes.Elapsed, staticRes.Elapsed)
	}
	// And it must still compute the right answer.
	want, err := RunSequential(dynamic)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if dynamicRes.FinalData[v] != want[v] {
			t.Fatalf("node %d: %v != %v", v, dynamicRes.FinalData[v], want[v])
		}
	}
}

func TestInvalidPlansRejected(t *testing.T) {
	g := hexGrid(t, 4, 8)
	cases := map[string][]Pair{
		"self pair":      {{Busy: 1, Idle: 1}},
		"out of range":   {{Busy: 0, Idle: 9}},
		"negative":       {{Busy: -1, Idle: 0}},
		"double busy":    {{Busy: 0, Idle: 1}, {Busy: 0, Idle: 2}},
		"busy also idle": {{Busy: 0, Idle: 1}, {Busy: 1, Idle: 2}},
	}
	for name, plan := range cases {
		cfg := baseConfig(g, 4)
		cfg.Iterations = 4
		cfg.BalanceEvery = 2
		cfg.Balancer = &scriptedBalancer{plans: [][]Pair{plan}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "invalid plan") {
			t.Errorf("%s: want invalid-plan error, got %v", name, err)
		}
	}
}

// TestInvalidPlansRejectedUnderPerturbation is the regression guard for
// the epoch plumbing: a misbehaving balancer — in particular one whose
// plan references out-of-range ranks — must be rejected identically
// when the balancing point falls inside a brownout window (iters=4
// defaults the window to [2,3), exactly the BalanceEvery=2 invocation),
// and the rejection path's empty-plan broadcast must unwind cleanly on
// a machine whose overheads are being re-priced per epoch.
func TestInvalidPlansRejectedUnderPerturbation(t *testing.T) {
	g := hexGrid(t, 4, 8)
	cases := map[string][]Pair{
		"out of range":      {{Busy: 0, Idle: 9}},
		"far out of range":  {{Busy: 0, Idle: 1 << 20}},
		"negative busy":     {{Busy: -1, Idle: 0}},
		"both out of range": {{Busy: 7, Idle: 12}},
	}
	for _, spec := range []string{"brownout", "chaos"} {
		sched, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, plan := range cases {
			cfg := baseConfig(g, 4)
			cfg.Iterations = 4
			cfg.BalanceEvery = 2
			cfg.Balancer = &scriptedBalancer{plans: [][]Pair{plan}}
			base, err := netmodel.New(netmodel.NameHypercube, cfg.Procs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Network, err = fault.Wrap(base, sched, cfg.Procs, cfg.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "invalid plan") {
				t.Errorf("%s/%s: want invalid-plan error, got %v", spec, name, err)
			}
		}
	}
}

func TestSharedIdleTargetRunsSequentialRounds(t *testing.T) {
	// Two busy procs target the same idle proc: the reservation logic must
	// execute them in successive rounds (Fig. 10's P0 case) and stay
	// correct.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	cfg.InitialPartition = blockPart(32, 4)
	cfg.Iterations = 6
	cfg.BalanceEvery = 3
	cfg.DisableMigrationGuard = true
	cfg.Balancer = &scriptedBalancer{plans: [][]Pair{
		{{Busy: 0, Idle: 1}, {Busy: 2, Idle: 1}},
	}}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", res.Migrations)
	}
}

func TestMigrationUpdatesPartition(t *testing.T) {
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 2)
	cfg.Iterations = 4
	cfg.BalanceEvery = 2
	cfg.DisableMigrationGuard = true
	cfg.Balancer = &scriptedBalancer{plans: [][]Pair{{{Busy: 0, Idle: 1}}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d", res.Migrations)
	}
	moved := 0
	for v := range res.FinalPartition {
		if res.FinalPartition[v] != cfg.InitialPartition[v] {
			moved++
			if res.FinalPartition[v] != 1 {
				t.Fatalf("node %d moved to %d, want 1", v, res.FinalPartition[v])
			}
		}
	}
	if moved != 1 {
		t.Fatalf("%d nodes changed owner, want 1", moved)
	}
}

func TestNoMigrationWhenBalanced(t *testing.T) {
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	cfg.Iterations = 20
	cfg.BalanceEvery = 5
	cfg.Balancer = thresholdBalancer{}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations != 0 {
		t.Fatalf("balanced uniform run migrated %d tasks", res.Migrations)
	}
}

// Property: after arbitrary legal single-pair migration scripts, the final
// partition is a total assignment and results match sequential execution.
func TestQuickMigrationScripts(t *testing.T) {
	g := hexGrid(t, 4, 6)
	f := func(seedBytes []byte) bool {
		const procs = 3
		var plans [][]Pair
		for _, b := range seedBytes {
			busy := int(b) % procs
			idle := (busy + 1 + int(b>>4)%(procs-1)) % procs
			plans = append(plans, []Pair{{Busy: busy, Idle: idle}})
			if len(plans) == 4 {
				break
			}
		}
		cfg := baseConfig(g, procs)
		cfg.Iterations = 2 * (len(plans) + 1)
		cfg.BalanceEvery = 2
		cfg.DisableMigrationGuard = true
		cfg.Balancer = &scriptedBalancer{plans: plans}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		want, err := RunSequential(cfg)
		if err != nil {
			return false
		}
		for v := range want {
			if res.FinalData[v] != want[v] {
				return false
			}
		}
		for _, p := range res.FinalPartition {
			if p < 0 || p >= procs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappedCommWithMigrations(t *testing.T) {
	// Fig. 8a overlap and task migration combined: correctness must hold
	// when both features interact.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	cfg.Overlap = true
	cfg.Iterations = 12
	cfg.BalanceEvery = 3
	cfg.DisableMigrationGuard = true
	cfg.Balancer = &scriptedBalancer{plans: [][]Pair{
		{{Busy: 0, Idle: 1}},
		{{Busy: 2, Idle: 3}},
		{{Busy: 1, Idle: 2}},
	}}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations != 3 {
		t.Fatalf("migrations = %d, want 3", res.Migrations)
	}
}

func TestSubPhasesWithMigrations(t *testing.T) {
	// Multi-sub-phase node functions (the battlefield pattern) with task
	// migration between iterations.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	cfg.SubPhases = 2
	cfg.Node = func(id graph.NodeID, iter, sub int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
		sum := int64(self.(IntData))
		for _, nb := range nbrs {
			sum = sum*13 + int64(nb.Data.(IntData))
		}
		return IntData(sum + int64(sub)*5 + int64(iter)), 1e-4
	}
	cfg.Iterations = 10
	cfg.BalanceEvery = 2
	cfg.DisableMigrationGuard = true
	cfg.Balancer = &scriptedBalancer{plans: [][]Pair{
		{{Busy: 0, Idle: 1}},
		{{Busy: 3, Idle: 2}},
	}}
	res := assertMatchesSequential(t, cfg)
	if res.Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", res.Migrations)
	}
}
