package scenario

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/platform"
)

func TestRegistryInvariants(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d scenarios registered, want >= 8: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := Lookup(n); !ok {
			t.Errorf("Lookup(%q) failed for a listed scenario", n)
		}
	}
	for _, sc := range List() {
		if sc.Description == "" || sc.Stresses == "" {
			t.Errorf("scenario %q missing Description/Stresses", sc.Name)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	sc, _ := Lookup("heat")
	Register(sc)
}

func TestRegisterInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid Register did not panic")
		}
	}()
	Register(Scenario{Name: "broken"})
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestExampleScenariosResolvable pins the examples tree to the registry:
// every example directory must map to a registered scenario and vice
// versa.
func TestExampleScenariosResolvable(t *testing.T) {
	for dir, name := range ExampleScenarios {
		if _, ok := Lookup(name); !ok {
			t.Errorf("example %q maps to unregistered scenario %q", dir, name)
		}
	}
	entries, err := os.ReadDir("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := ExampleScenarios[e.Name()]; !ok {
			t.Errorf("example directory %q has no ExampleScenarios entry", e.Name())
		}
	}
	for dir := range ExampleScenarios {
		if _, err := os.Stat("../../examples/" + dir + "/main.go"); err != nil {
			t.Errorf("ExampleScenarios entry %q has no example directory: %v", dir, err)
		}
	}
}

// TestEveryScenarioRuns executes every registered scenario at a small
// configuration and checks the Result is populated and deterministic.
func TestEveryScenarioRuns(t *testing.T) {
	for _, sc := range List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			p := Params{Procs: 2, Iterations: 3}
			res, err := sc.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
			}
			if res.Scenario != sc.Name {
				t.Errorf("Result.Scenario = %q, want %q", res.Scenario, sc.Name)
			}
			if res.Params.Procs != 2 || res.Params.Iterations != 3 {
				t.Errorf("params not echoed: %+v", res.Params)
			}
			again, err := sc.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("scenario not deterministic:\n%+v\n%+v", res, again)
			}
		})
	}
}

// snapshotData returns a copy of d that shares no memory with it and keeps
// nil and empty slices apart, so the comparison after the call sees any
// write through self or a neighbour, an emptied roster included.
func snapshotData(t *testing.T, d platform.NodeData) platform.NodeData {
	switch v := d.(type) {
	case *battlefield.HexData:
		c := *v
		c.Units = slices.Clone(v.Units)
		for i := range c.Out {
			c.Out[i] = slices.Clone(v.Out[i])
		}
		return &c
	case platform.IntData, Temp:
		return d
	}
	t.Fatalf("node data type %T: say here how to deep-copy it", d)
	return nil
}

// TestNodeFuncsNeverWriteTheirInputs holds every registered platform
// scenario's node function to the contract platform.NodeFunc states: a data
// value is immutable once returned. The runtime delivers values by
// reference — one value is a node's data on its owner and a shadow on every
// neighbouring rank at once — so a node function may return self or share
// its slices, and must never write through self or a neighbour. Each call
// is bracketed by a deep copy and a deep comparison, on 8 ranks, over each
// scenario's default run (25 time steps of the battlefield).
func TestNodeFuncsNeverWriteTheirInputs(t *testing.T) {
	for _, sc := range List() {
		if sc.Runner != nil {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			cfg, err := sc.Config(Params{Procs: 8})
			if err != nil {
				t.Fatal(err)
			}
			node := cfg.Node
			cfg.Node = func(id graph.NodeID, iter, sub int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
				before := make([]platform.NodeData, 0, 1+len(nbrs))
				before = append(before, snapshotData(t, self))
				for _, nb := range nbrs {
					before = append(before, snapshotData(t, nb.Data))
				}
				out, cost := node(id, iter, sub, self, nbrs)
				if !reflect.DeepEqual(self, before[0]) {
					t.Errorf("node %d, iteration %d, sub-phase %d: the node function wrote its own previous data", id, iter, sub)
				}
				for i, nb := range nbrs {
					if !reflect.DeepEqual(nb.Data, before[1+i]) {
						t.Errorf("node %d, iteration %d, sub-phase %d: the node function wrote neighbour %d's data", id, iter, sub, nb.ID)
					}
				}
				return out, cost
			}
			if _, err := platform.Run(*cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigrationRunsKeepInvariants runs the two scenarios whose load moves —
// the battlefield and the Fig. 23 imbalance — under a balancer with the
// platform's invariant checks on, so every rank's node lists, entries and
// exchange plans are checked against a from-scratch recount after every
// iteration and every migration round.
func TestMigrationRunsKeepInvariants(t *testing.T) {
	for _, name := range []string{"battlefield", "imbalance"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Lookup(name)
			if !ok {
				t.Fatalf("no scenario %q", name)
			}
			cfg, err := sc.Config(Params{Procs: 8, Balancer: "centralized"})
			if err != nil {
				t.Fatal(err)
			}
			cfg.CheckInvariants = true
			res, err := platform.Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Migrations == 0 {
				t.Fatal("no node migrated; the run does not exercise the plans' rebuild")
			}
		})
	}
}

func TestNormalizeDefaults(t *testing.T) {
	sc, _ := Lookup("imbalance")
	p, err := sc.Normalize(Params{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Balancer != "centralized" || p.BalanceEvery != 3 || p.BalanceRounds != 4 {
		t.Errorf("imbalance defaults not applied: %+v", p)
	}
	if p.Iterations != 25 || p.Partitioner != "metis" || p.Exchange != ExchangeBasic || p.Buffers != BuffersPooled {
		t.Errorf("package defaults not applied: %+v", p)
	}
	// One processor has nothing to balance: the requested balancer stays
	// in the echoed params (sweep groups must stay distinguishable), but
	// the built config must not balance.
	cfg, err := sc.Config(Params{Procs: 1, Balancer: "centralized"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Balancer != nil {
		t.Error("procs=1 config got a balancer")
	}
}

func TestNormalizeRejectsBadModes(t *testing.T) {
	sc, _ := Lookup("hex64-fine")
	if _, err := sc.Run(Params{Procs: 2, Exchange: "warp"}); err == nil {
		t.Error("bad exchange mode accepted")
	}
	if _, err := sc.Run(Params{Procs: 2, Buffers: "leaky"}); err == nil {
		t.Error("bad buffer mode accepted")
	}
	// The retired mode is refused by name, on every scenario, with an error
	// that says what happened to it and what to do.
	for _, name := range []string{"hex64-fine", "pagerank-bsp"} {
		sc, _ := Lookup(name)
		_, err := sc.Normalize(Params{Buffers: "unpooled"})
		want := "scenario " + name + `: buffer mode "unpooled" was retired: its results were bit-identical to "pooled", which every run now uses; drop the value`
		if err == nil || err.Error() != want {
			t.Errorf("Normalize(buffers=unpooled) on %s: error %v, want %q", name, err, want)
		}
	}
	if _, err := sc.Run(Params{Procs: 2, Balancer: "psychic"}); err == nil {
		t.Error("bad balancer accepted")
	}
	if _, err := sc.Run(Params{Procs: 2, Partitioner: "sharpie"}); err == nil {
		t.Error("bad partitioner accepted")
	}
	if _, err := sc.Run(Params{Procs: 2, Perturb: "earthquake"}); err == nil {
		t.Error("bad perturbation schedule accepted")
	}
	if _, err := sc.Run(Params{Procs: 2, Perturb: "brownout@x"}); err == nil {
		t.Error("bad perturbation seed accepted")
	}
}

// TestPerturbNormalization pins the Perturb knob's normalization: the
// default is the explicit "none" (so serialized reports always name the
// schedule), a named schedule wraps the platform config's machine in a
// fault model, and custom-runner scenarios reject perturbation.
func TestPerturbNormalization(t *testing.T) {
	sc, _ := Lookup("hex64-fine")
	p, err := sc.Normalize(Params{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Perturb != "none" {
		t.Errorf("default perturb = %q, want none", p.Perturb)
	}
	cfg, err := sc.Config(Params{Procs: 4, Perturb: "brownout"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Network.(netmodel.TimeVarying); !ok {
		t.Errorf("perturbed config network %T is not time-varying", cfg.Network)
	}
	static, err := sc.Config(Params{Procs: 4, Perturb: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := static.Network.(netmodel.TimeVarying); ok {
		t.Errorf("unperturbed config network %T is time-varying; the wrapper must be absent", static.Network)
	}
	bsp, _ := Lookup("pagerank-bsp")
	if _, err := bsp.Run(Params{Procs: 4, Perturb: "brownout"}); err == nil {
		t.Error("custom-runner scenario accepted a perturbation")
	}
	if _, err := bsp.Run(Params{Procs: 4, Iterations: 3}); err != nil {
		t.Errorf("custom-runner scenario rejected the default perturb: %v", err)
	}
}

func TestPartitionResolver(t *testing.T) {
	g, err := graph.PaperHexGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range partition.Names() {
		part, err := PartitionOn(name, g, 4, nil)
		if err != nil {
			t.Errorf("PartitionOn(%q) failed: %v", name, err)
			continue
		}
		if len(part) != g.NumVertices() {
			t.Errorf("PartitionOn(%q) returned %d entries", name, len(part))
		}
	}
	if _, err := PartitionOn("bogus", g, 4, nil); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

// TestPaGridTieCellsRepeat partitions, many times over, the four cells
// whose PaGrid refinement meets equally good destinations for a vertex:
// the tie must resolve the same way on every run, or every byte
// downstream of the partition varies with it.
func TestPaGridTieCellsRepeat(t *testing.T) {
	for _, c := range []struct {
		scenario string
		procs    int
		network  string
	}{
		{"hex64-fine", 8, "hypercube"},
		{"hex64-fine", 8, "mesh2d"},
		{"random64-fine", 16, "mesh2d"},
		{"random64-fine", 16, "fattree"},
	} {
		sc, err := Get(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sc.Graph()
		if err != nil {
			t.Fatal(err)
		}
		net, err := netmodel.New(c.network, c.procs)
		if err != nil {
			t.Fatal(err)
		}
		var first []int
		for run := 0; run < 250; run++ {
			part, err := PartitionOn("pagrid", g, c.procs, net)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = part
			} else if !reflect.DeepEqual(part, first) {
				t.Errorf("%s procs=%d network=%s: run %d gave a different partition than run 0", c.scenario, c.procs, c.network, run)
				break
			}
		}
	}
}

// TestBalancerResolver: the entry the platform configuration and bench/
// resolve balancers through is the internal/balance registry — every
// registered name resolves, "none" to no balancer, and an unknown name is
// refused with the known ones listed.
func TestBalancerResolver(t *testing.T) {
	for _, name := range balance.Names() {
		b, err := NewBalancerOn(name, netmodel.NameHypercube, 8)
		if err != nil || (b == nil) != (name == "none") {
			t.Errorf("NewBalancerOn(%q) = %v, %v", name, b, err)
		}
	}
	_, err := NewBalancerOn("bogus", "", 0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(balance.Names())) {
		t.Errorf("unknown balancer: got error %v, want one listing %v", err, balance.Names())
	}
}

// TestSSSPMatchesBFS verifies the sssp scenario's converged distances
// against a breadth-first search from the source.
func TestSSSPMatchesBFS(t *testing.T) {
	sc, _ := Lookup("sssp")
	cfg, err := sc.Config(Params{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipFinalGather = false
	res, err := platform.Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bfsDistances(cfg.Graph, SSSPSource)
	for v, d := range res.FinalData {
		if got := int64(d.(platform.IntData)); got != int64(want[v]) {
			t.Errorf("node %d: distance %d, want %d", v, got, want[v])
		}
	}
}

func bfsDistances(g *graph.Graph, src graph.NodeID) []int {
	dist := make([]int, g.NumVertices())
	for v := range dist {
		dist[v] = int(Unreachable)
	}
	dist[src] = 0
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Adj[v] {
			if dist[u] > dist[v]+1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// TestLifeMatchesSequential verifies the distributed Game of Life against
// the platform's sequential reference, and that the soup actually evolves.
func TestLifeMatchesSequential(t *testing.T) {
	sc, _ := Lookup("life")
	cfg, err := sc.Config(Params{Procs: 4, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipFinalGather = false
	res, err := platform.Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := platform.RunSequential(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	alive := 0
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Errorf("cell %d: distributed %v != sequential %v", v, res.FinalData[v], want[v])
		}
		if want[v].(platform.IntData) == Alive {
			alive++
		}
	}
	if alive == 0 {
		t.Error("soup died out entirely after 10 generations; initial pattern too sparse")
	}
	initial := 0
	for v := 0; v < LifeRows*LifeCols; v++ {
		if LifeInit(graph.NodeID(v)).(platform.IntData) == Alive {
			initial++
		}
	}
	if alive == initial {
		t.Logf("note: population unchanged at %d (possible but suspicious)", alive)
	}
}

// TestPageRankBSPMatchesSequential verifies the BSP ranks against the
// sequential reference at several process counts.
func TestPageRankBSPMatchesSequential(t *testing.T) {
	sc, _ := Lookup("pagerank-bsp")
	g, err := sc.Graph()
	if err != nil {
		t.Fatal(err)
	}
	want := PageRankSequential(g, 10)
	for _, procs := range []int{1, 3, 8} {
		ranks, elapsed, err := PageRankBSP(g, procs, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed <= 0 {
			t.Errorf("procs=%d: elapsed %v", procs, elapsed)
		}
		for v := range want {
			if diff := ranks[v] - want[v]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("procs=%d node %d: rank %v, want %v", procs, v, ranks[v], want[v])
			}
		}
	}
}

// TestHeatConfigGathersBitIdentical pins the heat scenario to the
// sequential reference, the property its example advertises.
// TestBSPOptionsCarryEveryKnob pins the custom runner's side of the knob
// plumbing: every parameter the pagerank-bsp runner acts on — the pevent
// worker count included, which it used to drop — arrives in mpi.Options.
func TestBSPOptionsCarryEveryKnob(t *testing.T) {
	sc, _ := Lookup("pagerank-bsp")
	p, err := sc.Normalize(Params{Procs: 4, Network: "mesh2d", Kernel: "pevent", KernelWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := bspOptions(p)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Procs != 4 || opts.Kernel != mpi.KernelParallelEvent || opts.Workers != 3 {
		t.Errorf("bspOptions = %+v, want 4 procs on the pevent kernel at 3 workers", opts)
	}
	if opts.Cost == nil || opts.Cost.String() != "mesh2d" {
		t.Errorf("bspOptions cost model = %v, want mesh2d", opts.Cost)
	}
	if free, err := bspOptions(Params{Procs: 2, Kernel: "goroutine"}); err != nil || free.Cost != nil {
		t.Errorf("bspOptions without a network: cost %v, err %v; want the free-comm machine", free.Cost, err)
	}
}

func TestHeatConfigBitIdentical(t *testing.T) {
	sc, _ := Lookup("heat")
	cfg, err := sc.Config(Params{Procs: 8, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipFinalGather = false
	res, err := platform.Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := platform.RunSequential(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Fatalf("node %d: distributed %v != sequential %v", v, res.FinalData[v], want[v])
		}
	}
}

func TestConfigRejectsCustomRunner(t *testing.T) {
	sc, _ := Lookup("pagerank-bsp")
	if _, err := sc.Config(Params{Procs: 2}); err == nil {
		t.Fatal("Config on a custom-runner scenario did not error")
	}
}

func TestGridGeneratorDegrees(t *testing.T) {
	g, err := graph.Grid(4, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 20 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Interior Moore cell has 8 neighbors, corner has 3.
	if d := g.Degree(graph.NodeID(1*5 + 2)); d != 8 {
		t.Errorf("interior degree = %d, want 8", d)
	}
	if d := g.Degree(graph.NodeID(0)); d != 3 {
		t.Errorf("corner degree = %d, want 3", d)
	}
	vn, err := graph.Grid(4, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := vn.Degree(graph.NodeID(1*5 + 2)); d != 4 {
		t.Errorf("von Neumann interior degree = %d, want 4", d)
	}
	if err := vn.Validate(); err != nil {
		t.Errorf("grid graph invalid: %v", err)
	}
}
