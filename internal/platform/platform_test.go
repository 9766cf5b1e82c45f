package platform

import (
	"fmt"
	"strings"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/netmodel"
)

// initID matches workload.InitID without importing it (avoiding a cycle in
// white-box tests).
func initID(id graph.NodeID) NodeData { return IntData(int64(id) + 1) }

// averaging is the thesis' neighbor-averaging node function with uniform
// grain.
func averaging(grain float64) NodeFunc {
	return func(id graph.NodeID, iter, _ int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
		sum := int64(self.(IntData))
		for _, nb := range nbrs {
			sum += int64(nb.Data.(IntData))
		}
		return IntData(sum / int64(len(nbrs)+1)), grain
	}
}

// mixing makes every node's value depend sensitively on neighbor values,
// node ID and iteration, so stale shadows can't go unnoticed.
func mixing(grain float64) NodeFunc {
	return func(id graph.NodeID, iter, _ int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
		sum := int64(self.(IntData))
		for _, nb := range nbrs {
			sum = sum*31 + int64(nb.Data.(IntData))
		}
		return IntData(sum*7 + int64(id) + int64(iter)), grain
	}
}

func hexGrid(t *testing.T, rows, cols int) *graph.Graph {
	t.Helper()
	g, err := graph.HexGrid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func blockPart(n, k int) []int {
	part := make([]int, n)
	for v := range part {
		part[v] = v * k / n
	}
	return part
}

func baseConfig(g *graph.Graph, procs int) Config {
	return Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: blockPart(g.NumVertices(), procs),
		InitData:         initID,
		Node:             mixing(1e-4),
		Iterations:       8,
		Network:          netmodel.NewUniform(netmodel.Origin2000()),
		CheckInvariants:  true,
	}
}

func assertMatchesSequential(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalData) != len(want) {
		t.Fatalf("final data length %d, want %d", len(res.FinalData), len(want))
	}
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Fatalf("node %d: distributed %v != sequential %v", v, res.FinalData[v], want[v])
		}
	}
	return res
}

func TestRunSingleProcessorMatchesSequential(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 1)
	assertMatchesSequential(t, cfg)
}

func TestRunMatchesSequentialAcrossProcsAndTopologies(t *testing.T) {
	rnd, err := graph.Random(40, 0.12, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{hexGrid(t, 4, 8), hexGrid(t, 8, 8), rnd} {
		for _, procs := range []int{2, 3, 4, 8, 16} {
			cfg := baseConfig(g, procs)
			t.Run(fmt.Sprintf("%s procs=%d", g.Name, procs), func(t *testing.T) {
				assertMatchesSequential(t, cfg)
			})
		}
	}
}

func TestRunOverlappedMatchesSequential(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		cfg := baseConfig(hexGrid(t, 8, 8), procs)
		cfg.Overlap = true
		assertMatchesSequential(t, cfg)
	}
}

func TestRunSubPhasesMatchesSequential(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	cfg.SubPhases = 2
	cfg.Node = func(id graph.NodeID, iter, sub int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
		sum := int64(self.(IntData))
		for _, nb := range nbrs {
			sum = sum*17 + int64(nb.Data.(IntData))
		}
		return IntData(sum + int64(sub) + int64(iter)*3), 1e-4
	}
	assertMatchesSequential(t, cfg)
}

func TestRunAveragingConverges(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 8, 8), 4)
	cfg.Node = averaging(1e-4)
	cfg.Iterations = 50
	res := assertMatchesSequential(t, cfg)
	// After long averaging all values should be in a narrow range.
	min, max := int64(1<<62), int64(-1)
	for _, d := range res.FinalData {
		v := int64(d.(IntData))
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 8 {
		t.Fatalf("averaging did not converge: range [%d,%d]", min, max)
	}
}

func TestRunZeroIterations(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	cfg.Iterations = 0
	res := assertMatchesSequential(t, cfg)
	for v, d := range res.FinalData {
		if d != initID(graph.NodeID(v)) {
			t.Fatalf("node %d changed with 0 iterations", v)
		}
	}
}

func TestRunVirtualTimeDeterministic(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 8, 8), 8)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Elapsed != b.Elapsed {
			t.Fatalf("nondeterministic elapsed: %v vs %v", a.Elapsed, b.Elapsed)
		}
		for ph := 0; ph < NumPhases; ph++ {
			for p := range a.PhaseTimes[ph] {
				if a.PhaseTimes[ph][p] != b.PhaseTimes[ph][p] {
					t.Fatalf("phase %v proc %d differs across runs", Phase(ph), p)
				}
			}
		}
	}
}

func TestRunSpeedupWithCoarseGrain(t *testing.T) {
	// Coarse-grain 64-node hex grid must show real speedup at 8 procs.
	g := hexGrid(t, 8, 8)
	times := map[int]float64{}
	for _, procs := range []int{1, 8} {
		cfg := baseConfig(g, procs)
		cfg.Node = averaging(3e-3)
		cfg.Iterations = 20
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[procs] = res.Elapsed
	}
	speedup := times[1] / times[8]
	if speedup < 3 {
		t.Fatalf("coarse grain speedup at 8 procs = %.2f, want >= 3 (t1=%v t8=%v)", speedup, times[1], times[8])
	}
}

func TestRunFineGrainScalesWorseThanCoarse(t *testing.T) {
	g := hexGrid(t, 8, 8)
	run := func(grain float64, procs int) float64 {
		cfg := baseConfig(g, procs)
		cfg.Node = averaging(grain)
		cfg.Iterations = 20
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	fine := run(0.3e-3, 1) / run(0.3e-3, 16)
	coarse := run(3e-3, 1) / run(3e-3, 16)
	if coarse <= fine {
		t.Fatalf("coarse speedup %.2f should exceed fine speedup %.2f", coarse, fine)
	}
}

func TestPhaseTimesAccounted(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 8, 8), 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []Phase{PhaseInit, PhaseComputeOverhead, PhaseCompute, PhaseCommOverhead, PhaseCommunicate} {
		if res.MaxPhase(ph) <= 0 {
			t.Errorf("phase %v recorded no time", ph)
		}
	}
	// Per-proc phase sums cannot exceed elapsed.
	for p := 0; p < 4; p++ {
		sum := 0.0
		for ph := 0; ph < NumPhases; ph++ {
			sum += res.PhaseTimes[ph][p]
		}
		if sum > res.Elapsed*1.0001 {
			t.Errorf("proc %d phase sum %.6f exceeds elapsed %.6f", p, sum, res.Elapsed)
		}
	}
}

func TestSkipFinalGather(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 2)
	cfg.SkipFinalGather = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalData != nil {
		t.Fatal("FinalData should be nil with SkipFinalGather")
	}
}

func TestConfigValidation(t *testing.T) {
	g := hexGrid(t, 2, 2)
	base := baseConfig(g, 2)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"zero procs", func(c *Config) { c.Procs = 0 }},
		{"nil node func", func(c *Config) { c.Node = nil }},
		{"nil init data", func(c *Config) { c.InitData = nil }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"short partition", func(c *Config) { c.InitialPartition = []int{0} }},
		{"out of range partition", func(c *Config) { c.InitialPartition = []int{0, 0, 0, 9} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

func TestNodeFuncFailureInjection(t *testing.T) {
	g := hexGrid(t, 2, 4)
	t.Run("nil data", func(t *testing.T) {
		cfg := baseConfig(g, 2)
		cfg.Node = func(graph.NodeID, int, int, NodeData, []Neighbor) (NodeData, float64) { return nil, 0 }
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "nil data") {
			t.Fatalf("want nil-data error, got %v", err)
		}
	})
	t.Run("negative cost", func(t *testing.T) {
		cfg := baseConfig(g, 2)
		cfg.Node = func(id graph.NodeID, _, _ int, self NodeData, _ []Neighbor) (NodeData, float64) { return self, -1 }
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "negative cost") {
			t.Fatalf("want negative-cost error, got %v", err)
		}
	})
	t.Run("nil init", func(t *testing.T) {
		cfg := baseConfig(g, 2)
		cfg.InitData = func(graph.NodeID) NodeData { return nil }
		if _, err := Run(cfg); err == nil {
			t.Fatal("want nil InitData error")
		}
	})
}

func TestUnevenPartitionStillCorrect(t *testing.T) {
	// All nodes on proc 2 of 4: degenerate but legal.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	for v := range cfg.InitialPartition {
		cfg.InitialPartition[v] = 2
	}
	assertMatchesSequential(t, cfg)
}

func TestScatteredPartitionStillCorrect(t *testing.T) {
	// Round-robin partition: every edge crosses processors.
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)
	for v := range cfg.InitialPartition {
		cfg.InitialPartition[v] = v % 4
	}
	assertMatchesSequential(t, cfg)
}

func TestMoreProcsThanNodes(t *testing.T) {
	g := hexGrid(t, 2, 2) // 4 nodes
	cfg := baseConfig(g, 6)
	cfg.InitialPartition = []int{0, 1, 2, 3} // procs 4,5 idle
	assertMatchesSequential(t, cfg)
}

func TestStatsPopulated(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalSent := 0
	for _, s := range res.Stats {
		totalSent += s.MessagesSent
	}
	if totalSent == 0 {
		t.Fatal("no messages recorded in a 4-proc run")
	}
}
