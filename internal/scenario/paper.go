package scenario

import (
	"fmt"

	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/workload"
)

// The paper's evaluation workloads (Section 5): neighbor-averaging over
// hexagonal grids and connected random graphs at fine and coarse grain,
// the Fig. 23 dynamic-imbalance schedule, and the battlefield management
// simulation.

// averaging builds a generic neighbor-averaging scenario with a uniform
// grain, the workload behind Tables 2-6 and Figures 11-17.
func averaging(name, desc string, graphFn func() (*graph.Graph, error), grain float64, iters int) Scenario {
	stress := "static partitioning quality and the compute/communicate pipeline at %s grain (%.1f ms per node)"
	kind := "fine"
	if grain >= workload.CoarseGrain {
		kind = "coarse"
	}
	return Scenario{
		Name:        name,
		Description: desc,
		Stresses:    fmt.Sprintf(stress, kind, grain*1e3),
		Graph:       graphFn,
		InitData:    workload.InitID,
		Node: func(*graph.Graph) platform.NodeFunc {
			return workload.Averaging(workload.UniformGrain(grain))
		},
		Iterations: iters,
	}
}

// ImbalanceScenario returns the thesis' dynamic-imbalance workload over
// the given graph: neighbor averaging under the Fig. 23 schedule (a
// coarse-grain window sweeping across the node ID space every ten
// iterations, 100:1 grain ratio), defaulting to the centralized balancer
// with the Section 7 extensions (period 3, multi-round migration).
// Figures 13-15 and 18-19 instantiate it per graph size; the registered
// "imbalance" scenario is the 64-node random-graph instance.
func ImbalanceScenario(name string, graphFn func() (*graph.Graph, error)) Scenario {
	return Scenario{
		Name:        name,
		Description: "neighbor averaging under the Fig. 23 moving-hot-spot imbalance schedule (100:1 grain ratio)",
		Stresses:    "dynamic load balancing and task migration against load a static partitioner cannot anticipate",
		Graph:       graphFn,
		InitData:    workload.InitID,
		Node: func(g *graph.Graph) platform.NodeFunc {
			return workload.Averaging(workload.Fig23Schedule(
				g.NumVertices(), workload.CoarseGrain, workload.CoarseGrain/100))
		},
		Iterations: 25,
		Defaults: Params{
			Balancer:      "centralized",
			BalanceEvery:  3,
			BalanceRounds: 4,
		},
	}
}

// OverheadScenario returns the Figures 21-22 workload: neighbor averaging
// under the Fig. 23 schedule at the paper's 10:1 coarse/fine grain ratio,
// 35 iterations, centralized balancer every 10 time steps — the run whose
// per-phase breakdown exposes the platform's own overheads.
func OverheadScenario(name string, graphFn func() (*graph.Graph, error)) Scenario {
	return Scenario{
		Name:        name,
		Description: "the Figures 21-22 overhead-breakdown workload (Fig. 23 schedule, 10:1 grain ratio)",
		Stresses:    "platform bookkeeping: list forming, buffer packing/unpacking, balancing overhead",
		Graph:       graphFn,
		InitData:    workload.InitID,
		Node: func(g *graph.Graph) platform.NodeFunc {
			return workload.Averaging(workload.Fig23Schedule(
				g.NumVertices(), workload.CoarseGrain, workload.FineGrain))
		},
		Iterations: 35,
		Defaults: Params{
			Balancer:     "centralized",
			BalanceEvery: 10,
		},
	}
}

func init() {
	Register(averaging("hex32-fine",
		"32-node hexagonal grid (4x8), fine-grain neighbor averaging (Table 2)",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(32) },
		workload.FineGrain, 20))
	Register(averaging("hex64-fine",
		"64-node hexagonal grid (8x8), fine-grain neighbor averaging (Table 3, quickstart)",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(64) },
		workload.FineGrain, 20))
	Register(averaging("hex96-fine",
		"96-node hexagonal grid (8x12), fine-grain neighbor averaging (Table 4)",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(96) },
		workload.FineGrain, 20))
	Register(averaging("hex64-coarse",
		"64-node hexagonal grid, coarse-grain neighbor averaging (Figure 12)",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(64) },
		workload.CoarseGrain, 20))
	Register(averaging("random32-fine",
		"32-node connected random graph, fine-grain neighbor averaging (Table 5)",
		func() (*graph.Graph, error) { return graph.PaperRandom(32) },
		workload.FineGrain, 20))
	Register(averaging("random64-fine",
		"64-node connected random graph, fine-grain neighbor averaging (Table 6)",
		func() (*graph.Graph, error) { return graph.PaperRandom(64) },
		workload.FineGrain, 20))
	Register(averaging("random64-coarse",
		"64-node connected random graph, coarse-grain neighbor averaging (Figure 17)",
		func() (*graph.Graph, error) { return graph.PaperRandom(64) },
		workload.CoarseGrain, 20))

	imb := ImbalanceScenario("imbalance", func() (*graph.Graph, error) {
		// A 64-node random graph of average degree ~4.
		return graph.Random(64, 4.0/64, 64*100+1)
	})
	Register(imb)

	sc := battlefield.DefaultScenario()
	Register(Scenario{
		Name:        "battlefield",
		Description: "time-stepped battlefield management simulation on the 32x32 hex terrain (Tables 7-11, Figure 20)",
		Stresses:    "multi-sub-phase iterations (intent + resolve) and rich user NodeData under every static partitioner",
		Graph:       sc.Terrain,
		InitData:    sc.InitData(),
		Node: func(*graph.Graph) platform.NodeFunc {
			return sc.NodeFunc(battlefield.DefaultCost())
		},
		Iterations: 25,
		SubPhases:  2,
	})
}
