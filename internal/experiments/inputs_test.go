package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// TestSweepSharesInputs: the cells of one RunSweep share one memo of their
// inputs (scenario.Inputs), and sharing changes no byte. The report equals
// the one assembled from the same cells each run on its own through
// Scenario.Run, at Parallelism 1 and 4. Two sweeps are checked: procs ×
// balancer × network, and a PaGrid sweep, where the network changes the
// partition. Each RunSweep generates its graph once and builds the initial
// node data once, and the cells of a sweep on one memo, as RunSweep runs
// them, build one layout per partition key.
func TestSweepSharesInputs(t *testing.T) {
	base := mustScenario("hex32-fine")
	g, err := base.Graph()
	if err != nil {
		t.Fatal(err)
	}
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
	encode := func(rep *SweepReport, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, "json", rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer func(old int) { Parallelism = old }(Parallelism)
	const pagrid = "procs=1,3,4,8;iters=6;partitioner=pagrid;network=hypercube,mesh2d,fattree"
	for _, spec := range []string{
		"procs=1,2,4,8;iters=6;balancer=none,centralized,diffusion;network=uniform,hypercube,mesh2d",
		pagrid,
	} {
		ax, err := ParseAxes(spec)
		if err != nil {
			t.Fatal(err)
		}
		Parallelism = 1
		fresh, err := RunSweepWith(sc, ax, func(sc scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
			return sc.Run(p)
		})
		want := encode(fresh, err)
		if graphs.Load() != int64(ax.Size()) {
			t.Fatalf("%s: %d graph generations for %d cells run on their own", spec, graphs.Load(), ax.Size())
		}
		for _, par := range []int{1, 4} {
			Parallelism = par
			graphs.Store(0)
			inits.Store(0)
			if got := encode(RunSweep(sc, ax)); !bytes.Equal(got, want) {
				t.Fatalf("%s at parallelism %d: shared inputs change the report\n got %s\nwant %s", spec, par, got, want)
			}
			if graphs.Load() != 1 || inits.Load() != int64(g.NumVertices()) {
				t.Errorf("%s at parallelism %d: %d graph generations and %d InitData calls, want 1 and %d",
					spec, par, graphs.Load(), inits.Load(), g.NumVertices())
			}
			in := scenario.NewInputs(sc)
			got := encode(RunSweepWith(sc, ax, func(_ scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
				return in.Run(p)
			}))
			if !bytes.Equal(got, want) || in.Layouts() != in.Partitions() || in.Partitions() != partitionKeys(t, sc, ax) {
				t.Errorf("%s at parallelism %d: %d layouts and %d partitions for %d partition keys, or other bytes",
					spec, par, in.Layouts(), in.Partitions(), partitionKeys(t, sc, ax))
			}
		}
		graphs.Store(0)
		if spec == pagrid {
			cuts := map[int]map[int]bool{} // procs → edge cuts over the networks
			for _, row := range fresh.Rows {
				if cuts[row.Params.Procs] == nil {
					cuts[row.Params.Procs] = map[int]bool{}
				}
				cuts[row.Params.Procs][row.EdgeCut] = true
			}
			if len(cuts[8]) < 2 {
				t.Errorf("%s: every network gives PaGrid the same 8-processor edge cut, so the network is not in the partition", spec)
			}
		}
	}
}

// partitionKeys counts the distinct (partitioner, network, procs) of the
// cells of ax.
func partitionKeys(t *testing.T, sc scenario.Scenario, ax Axes) int {
	t.Helper()
	type key struct {
		partitioner, network string
		procs                int
	}
	keys := map[key]bool{}
	for _, p := range ax.Cells() {
		np, err := sc.Normalize(p)
		if err != nil {
			t.Fatal(err)
		}
		keys[key{np.Partitioner, np.Network, np.Procs}] = true
	}
	return len(keys)
}
