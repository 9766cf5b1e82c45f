package battlefield

import (
	"testing"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/platform"
)

// The thesis' future extensions (§7.1): "While the Battlefield Management
// Simulation was parallelized using static graph partitioner, it would be
// interesting to see the performance of the platform while parallelizing
// the same with the dynamic load balancer utilities." These tests do
// exactly that: the battlefield's combat zone concentrates load at the
// midline over time, which a static partition cannot anticipate.

func TestBattlefieldWithDynamicBalancerCorrect(t *testing.T) {
	sc := smallScenario()
	cfg := runConfig(t, sc, 4, 16, nil)
	cfg.Balancer = &balance.CentralizedHeuristic{}
	cfg.BalanceEvery = 4
	cfg.BalanceRounds = 2
	res, err := platform.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Migration must never change the simulation outcome.
	want, err := platform.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		a := res.FinalData[v].(*HexData)
		b := want[v].(*HexData)
		if len(a.Units) != len(b.Units) || a.Destroyed != b.Destroyed {
			t.Fatalf("hex %d diverged under dynamic balancing", v)
		}
		for i := range a.Units {
			if a.Units[i] != b.Units[i] {
				t.Fatalf("hex %d unit %d diverged: %+v vs %+v", v, i, a.Units[i], b.Units[i])
			}
		}
	}
	// Final partition stays a legal assignment.
	for v, p := range res.FinalPartition {
		if p < 0 || p >= 4 {
			t.Fatalf("node %d assigned to %d", v, p)
		}
	}
}

func TestBattlefieldCombatZoneTriggersMigration(t *testing.T) {
	// A row-band partition concentrates the combat zone (midline rows) on
	// the middle processors; the balancer should move work off them.
	sc := DefaultScenario()
	terrain, err := sc.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	// Row bands over 8 procs: procs 3 and 4 own the midline.
	part := make([]int, terrain.NumVertices())
	for v := range part {
		part[v] = (v / sc.Cols) * 8 / sc.Rows
	}
	cfg := runConfig(t, sc, 8, 24, part)
	cfg.Balancer = &balance.CentralizedHeuristic{}
	cfg.BalanceEvery = 4
	cfg.BalanceRounds = 2
	res, err := platform.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("combat-zone load concentration triggered no migrations")
	}
	// And the dynamic run should not be slower than static by more than
	// the balancing overhead budget (sanity bound, not a win guarantee —
	// see docs/scenarios.md, imbalance, on migration granularity).
	static := cfg
	static.Balancer = nil
	sres, err := platform.Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed > sres.Elapsed*1.5 {
		t.Fatalf("dynamic %.3fs catastrophically slower than static %.3fs", res.Elapsed, sres.Elapsed)
	}
	t.Logf("battlefield 8 procs: static %.3fs, dynamic %.3fs, %d migrations",
		sres.Elapsed, res.Elapsed, res.Migrations)
}
