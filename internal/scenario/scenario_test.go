package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// scenario's node function to the contract platform.Node states: what a
// data value refers to is immutable once returned. The runtime delivers
// values by reference — a battlefield hex is a node's data on its owner and
// a shadow on every neighbouring rank at once — so a node function may
// return self or share its slices, and must never write through self or a
// neighbour. A NodeFunc is opaque, so the test rebuilds the typed function
// it holds with reflect.MakeFunc, and brackets each call by a deep copy and
// a deep comparison, on 8 ranks, over each scenario's default run (25 time
// steps of the battlefield). A value type passes by construction.
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
			node := reflect.ValueOf(cfg.Node)
			if node.Kind() != reflect.Func {
				t.Fatalf("the NodeFunc is a %v, not the typed function", node.Kind())
			}
			data := func(v reflect.Value) platform.NodeData { return v.Interface().(platform.NodeData) }
			cfg.Node = reflect.MakeFunc(node.Type(), func(args []reflect.Value) []reflect.Value {
				id, iter, sub, self, nbrs := args[0].Interface(), args[1].Int(), args[2].Int(), args[3], args[4]
				before := []platform.NodeData{snapshotData(t, data(self))}
				for i := range nbrs.Len() {
					before = append(before, snapshotData(t, data(nbrs.Index(i).FieldByName("Data"))))
				}
				out := node.Call(args)
				if !reflect.DeepEqual(data(self), before[0]) {
					t.Errorf("node %v, iteration %d, sub-phase %d: the node function wrote its own previous data", id, iter, sub)
				}
				for i := range nbrs.Len() {
					if nb := nbrs.Index(i); !reflect.DeepEqual(data(nb.FieldByName("Data")), before[1+i]) {
						t.Errorf("node %v, iteration %d, sub-phase %d: the node function wrote neighbour %v's data", id, iter, sub, nb.FieldByName("ID"))
					}
				}
				return out
			}).Interface().(platform.NodeFunc)
			if _, err := platform.Run(*cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigrationRunsKeepInvariants runs the two scenarios whose load moves —
// the battlefield and the Fig. 23 imbalance — at 4 to 64 processors under
// every registered balancer (J3's cells among them: imbalance at 4 and 8
// under diffusion and centralized) with the platform's invariant checks
// on, so every rank's node lists, entries and exchange plans are checked
// against a from-scratch recount after every iteration and every
// balancing invocation. Every row must migrate, so the table leaves out
// the cells that cannot: "none", imbalance at 64 processors (its 64 nodes
// one to a rank, and a rank never sheds its last node), and the cells where
// the strict 25 % rule finds no busy processor.
func TestMigrationRunsKeepInvariants(t *testing.T) {
	still := map[string]bool{
		"imbalance/procs=4/centralized-strict":    true,
		"imbalance/procs=8/centralized-strict":    true,
		"battlefield/procs=8/centralized-strict":  true,
		"battlefield/procs=16/centralized-strict": true,
	}
	for _, name := range []string{"battlefield", "imbalance"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Lookup(name)
			if !ok {
				t.Fatalf("no scenario %q", name)
			}
			for _, procs := range []int{4, 8, 16, 32, 64} {
				for _, bal := range balance.Names() {
					row := fmt.Sprintf("procs=%d/%s", procs, bal)
					if bal == "none" || name == "imbalance" && procs == 64 || still[name+"/"+row] {
						continue
					}
					t.Run(row, func(t *testing.T) {
						cfg, err := sc.Config(Params{Procs: procs, Balancer: bal})
						if err != nil {
							t.Fatal(err)
						}
						cfg.CheckInvariants = true
						res, err := platform.Run(*cfg)
						if err != nil {
							t.Fatal(err)
						}
						if res.Migrations == 0 {
							t.Fatal("no node migrated; the run does not exercise the plans' update")
						}
					})
				}
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
	want := bfsDistances(cfg.Graph, ssspSource)
	for v, d := range res.FinalData {
		if got := int64(d.(platform.IntData)); got != int64(want[v]) {
			t.Errorf("node %d: distance %d, want %d", v, got, want[v])
		}
	}
}

func bfsDistances(g *graph.Graph, src graph.NodeID) []int {
	dist := make([]int, g.NumVertices())
	for v := range dist {
		dist[v] = int(unreachable)
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
	live := 0
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Errorf("cell %d: distributed %v != sequential %v", v, res.FinalData[v], want[v])
		}
		if want[v].(platform.IntData) == alive {
			live++
		}
	}
	if live == 0 {
		t.Error("soup died out entirely after 10 generations; initial pattern too sparse")
	}
	initial := 0
	for v := 0; v < lifeRows*lifeCols; v++ {
		if lifeInit(graph.NodeID(v)).(platform.IntData) == alive {
			initial++
		}
	}
	if live == initial {
		t.Logf("note: population unchanged at %d (possible but suspicious)", live)
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
	want := pageRankSequential(g, 10)
	for _, procs := range []int{1, 3, 8} {
		ranks, elapsed, err := pageRankBSPRun(g, 10, mpi.Options{Procs: procs}, nil)
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

// pageRankSequential is the single-address-space reference the BSP ranks
// are verified against.
func pageRankSequential(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	r := make([]float64, n)
	next := make([]float64, n)
	for v := range r {
		r[v] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = (1 - pageRankDamping) / float64(n)
		}
		for v := 0; v < n; v++ {
			deg := len(g.Adj[v])
			if deg == 0 {
				continue
			}
			share := r[v] / float64(deg)
			for _, u := range g.Adj[v] {
				next[u] += pageRankDamping * share
			}
		}
		r, next = next, r
	}
	return r
}

// TestBSPOptionsCarryEveryKnob pins the custom runner's side of the knob
// plumbing: every parameter the pagerank-bsp runner acts on — the pevent
// worker count included, which it used to drop, and the stop channel —
// arrives in mpi.Options.
func TestBSPOptionsCarryEveryKnob(t *testing.T) {
	sc, _ := Lookup("pagerank-bsp")
	stop := make(chan struct{})
	p, err := sc.Normalize(Params{Procs: 4, Network: "mesh2d", Kernel: "pevent", Host: platform.Host{KernelWorkers: 3, Stop: stop}})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := bspOptions(p)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Procs != 4 || opts.Kernel != mpi.KernelParallelEvent || opts.Workers != 3 || opts.Stop != stop {
		t.Errorf("bspOptions = %+v, want 4 procs on the pevent kernel at 3 workers with the stop channel", opts)
	}
	if opts.Cost == nil || opts.Cost.String() != "mesh2d" {
		t.Errorf("bspOptions cost model = %v, want mesh2d", opts.Cost)
	}
	if free, err := bspOptions(Params{Procs: 2, Kernel: "goroutine"}); err != nil || free.Cost != nil {
		t.Errorf("bspOptions without a network: cost %v, err %v; want the free-comm machine", free.Cost, err)
	}
}

// TestHeatConfigBitIdentical pins the heat scenario to the sequential
// reference, the property its example advertises.
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

// TestInputsBuildOncePerKey: one memo, whatever the order and concurrency
// of its runs, generates the graph once, builds one partition per
// (partitioner, procs, network) and the initial node data once, and hands
// every run the same values. A resumed run calls no InitData.
func TestInputsBuildOncePerKey(t *testing.T) {
	base, _ := Lookup("hex32-fine")
	var graphs, inits atomic.Int64
	sc := base
	sc.Graph = func() (*graph.Graph, error) {
		graphs.Add(1)
		return base.Graph()
	}
	sc.InitData = func(id graph.NodeID) platform.NodeData {
		inits.Add(1)
		return base.InitData(id)
	}
	var params []Params
	for _, part := range []string{"metis", "pagrid"} {
		for _, procs := range []int{2, 4} {
			for _, network := range []string{"hypercube", "mesh2d"} {
				for _, bal := range []string{"none", "diffusion", "centralized"} {
					params = append(params, Params{Partitioner: part, Procs: procs, Network: network, Balancer: bal, Iterations: 4})
				}
			}
		}
	}
	in := NewInputs(sc)
	cfgs := make([]*platform.Config, len(params))
	var wg sync.WaitGroup
	for i := range params {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := sc.Normalize(params[i])
			if err == nil {
				cfgs[i], _, err = in.config(p)
			}
			if err == nil {
				_, err = in.Run(params[i])
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if graphs.Load() != 1 || len(in.parts) != len(params)/3 || inits.Load() != int64(cfgs[0].Graph.NumVertices()) {
		t.Fatalf("%d graph generations, %d partitions and %d InitData calls for %d runs; want 1, %d and %d",
			graphs.Load(), len(in.parts), inits.Load(), len(params), len(params)/3, cfgs[0].Graph.NumVertices())
	}
	for i, cfg := range cfgs {
		first := cfgs[i-i%3] // the run of the same partition key with no balancer
		if cfg.Graph != first.Graph || &cfg.InitialPartition[0] != &first.InitialPartition[0] {
			t.Errorf("%+v: the graph or the partition is not the one its key's first run got", params[i])
		}
	}

	// A run cut after iteration 2 and resumed from its snapshot.
	p := params[1]
	p.CheckpointEvery = 2
	p.CheckpointSink = func(s *platform.RunSnapshot) error { p.ResumeFrom = s; return nil }
	if _, err := sc.Run(p); err != nil {
		t.Fatal(err)
	}
	p.CheckpointEvery, p.CheckpointSink = 0, nil
	inits.Store(0)
	if _, err := NewInputs(sc).Run(p); err != nil {
		t.Fatal(err)
	}
	if n := inits.Load(); n != 0 {
		t.Errorf("a resumed run called InitData %d times", n)
	}
}

// TestPanickedBuildIsAnError: a build that panics re-panics in the get that
// ran it, and every later get of that value returns errBuildPanicked, not a
// zero value with a nil error, and does not build again.
func TestPanickedBuildIsAnError(t *testing.T) {
	base, _ := Lookup("hex32-fine")
	var builds atomic.Int64
	sc := base
	sc.Graph = func() (*graph.Graph, error) {
		if builds.Add(1) == 1 {
			panic("graph generator failed")
		}
		return base.Graph()
	}
	in := NewInputs(sc)
	p := Params{Procs: 2, Iterations: 2}
	func() {
		defer func() {
			if r := recover(); r != "graph generator failed" {
				t.Errorf("first run recovered %v, want the build's panic", r)
			}
		}()
		in.Run(p)
	}()
	res, err := in.Run(p)
	if !errors.Is(err, errBuildPanicked) || res != nil {
		t.Errorf("second run returned (%v, %v), want errBuildPanicked", res, err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("the graph was built %d times, want once", n)
	}
}
