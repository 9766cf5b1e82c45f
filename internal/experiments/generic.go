package experiments

import (
	"fmt"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/workload"
)

// Tables 2-4: execution time on 32-, 64- and 96-node hexagonal grids with
// fine-grain (0.3 ms) node computation, Metis static partitioning.
// Tables 5-6: the same sweeps on 32- and 64-node random graphs.
// Figures 11-19: speedup and comparison plots derived from the same
// workloads. All workloads resolve from the scenario registry (or its
// constructors, for graph-size variants that are not registered).

var tableIters = []int{10, 15, 20}

func scenarioTable(id, title, scenarioName string) Runner {
	return func() (Report, error) {
		return executionTimeTable(id, title, "Iterations", mustScenario(scenarioName),
			Axes{Iterations: tableIters, Balancers: []string{"none"}})
	}
}

// fig11 plots speedup for the three hexagonal grids at 20 iterations.
func fig11() (Report, error) {
	f := &Figure{
		ID: "fig11", Title: "Speedup for Hexagonal Grids using Metis",
		XLabel: "Processor", X: procLabels(), YLabel: "Speed-up",
	}
	for _, n := range []int{32, 64, 96} {
		rows, err := timesFor(mustScenario(fmt.Sprintf("hex%d-fine", n)), "metis", 20, "none")
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, speedupSeries(fmt.Sprintf("%d-node Hexagonal Grid", n), rows))
	}
	return f, nil
}

// metisVsPaGrid builds Figures 12 and 17: fine and coarse grain speedups
// under both partitioners, from the registered fine/coarse scenario pair.
func metisVsPaGrid(id, title, fineScenario, coarseScenario string) Runner {
	return func() (Report, error) {
		f := &Figure{
			ID: id, Title: title,
			XLabel: "Processor", X: procLabels(), YLabel: "Speed-up",
		}
		type variant struct {
			name     string
			scenario string
			part     string
		}
		for _, v := range []variant{
			{"Fine Grain (0.3ms) - Metis", fineScenario, "metis"},
			{"Coarse Grain (3ms) - Metis", coarseScenario, "metis"},
			{"Fine Grain (0.3ms) - PaGrid", fineScenario, "pagrid"},
			{"Coarse Grain (3ms) - PaGrid", coarseScenario, "pagrid"},
		} {
			rows, err := timesFor(mustScenario(v.scenario), v.part, 20, "none")
			if err != nil {
				return nil, err
			}
			f.Series = append(f.Series, speedupSeries(v.name, rows))
		}
		return f, nil
	}
}

// staticVsDynamic builds Figures 13-15 and 18-19: speedup with and without
// the dynamic load balancing utility under the Fig. 23 imbalance schedule,
// 25 iterations. Speedups are relative to the 1-processor execution of the
// same workload.
func staticVsDynamic(id, title string, mk func() (*graph.Graph, error)) Runner {
	return func() (Report, error) {
		// The thesis' imbalance generator uses dummy loops of 100000 vs
		// 1000 iterations — a 100:1 grain ratio (Appendix B); the scenario
		// constructor defaults to the Section 7 balancer extensions
		// (period 3, multi-round migration).
		sc := scenario.ImbalanceScenario(id+"-imbalance", mk)
		f := &Figure{
			ID: id, Title: title,
			XLabel: "Processor", X: procLabels(), YLabel: "Speed-up",
			Notes: "Fig. 23 imbalance schedule (100:1 grain ratio); balancer every 3 steps, multi-round migration (see docs/scenarios.md, imbalance)",
		}
		dynRows, err := timesFor(sc, "metis", 25, "")
		if err != nil {
			return nil, err
		}
		statRows, err := timesFor(sc, "metis", 25, "none")
		if err != nil {
			return nil, err
		}
		// Both series share the static 1-proc baseline, as in the paper, so
		// the dynamic one is not its own sweep's SweepRow.Speedup.
		base := statRows[0].Elapsed
		dyn := make([]float64, len(Procs))
		stat := make([]float64, len(Procs))
		for i := range Procs {
			dyn[i] = base / dynRows[i].Elapsed
			stat[i] = base / statRows[i].Elapsed
		}
		f.Series = append(f.Series,
			Series{Name: "Dynamic Load Balancing Utility", Y: dyn},
			Series{Name: "Static Partition", Y: stat},
		)
		return f, nil
	}
}

// fig16 plots random-graph speedups with static Metis partitioning.
func fig16() (Report, error) {
	f := &Figure{
		ID: "fig16", Title: "Speedup for Random Graphs with Static Partition (Metis)",
		XLabel: "Processor", X: procLabels(), YLabel: "Speed-up",
	}
	for _, n := range []int{32, 64} {
		rows, err := timesFor(mustScenario(fmt.Sprintf("random%d-fine", n)), "metis", 20, "none")
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, speedupSeries(fmt.Sprintf("%d-node Random Graph", n), rows))
	}
	return f, nil
}

// overheadFigure builds Figures 21-22: per-phase overhead breakdown for
// fine-grained 64-node graphs, 35 iterations, dynamic load balancer
// invoked every 10 time steps, across 2-16 processors.
func overheadFigure(id, title string, mk func() (*graph.Graph, error)) Runner {
	return func() (Report, error) {
		sc := scenario.OverheadScenario(id+"-overhead", mk)
		procs := []int{2, 4, 8, 16}
		f := &Figure{
			ID: id, Title: title,
			XLabel: "Processor", YLabel: "Time in Seconds",
			Notes: "35 iterations, fine grain (0.3ms), load balancer every 10 steps",
		}
		for _, p := range procs {
			f.X = append(f.X, fmt.Sprint(p))
		}
		series := make([]Series, platform.NumPhases)
		for ph := 0; ph < platform.NumPhases; ph++ {
			series[ph].Name = platform.Phase(ph).String()
			series[ph].Y = make([]float64, len(procs))
		}
		rep, err := RunSweep(sc, Axes{Procs: procs})
		if err != nil {
			return nil, err
		}
		for i, row := range rep.Rows {
			for ph := 0; ph < platform.NumPhases; ph++ {
				series[ph].Y[i] = row.Phases[ph]
			}
		}
		f.Series = series
		return f, nil
	}
}

// fig23 documents the dynamic-imbalance schedule itself: for a 64-node
// graph it reports, per 10-iteration window, which node-ID range runs at
// coarse grain, plus the measured aggregate coarse fraction.
func fig23() (Report, error) {
	const n = 64
	grain := workload.Fig23Schedule(n, workload.CoarseGrain, workload.FineGrain)
	f := &Figure{
		ID: "fig23", Title: "Varying the grain size of the node for creating dynamic load imbalance",
		XLabel: "Iteration window", X: []string{"1-10", "11-20", "21-30", "31-35"},
		YLabel: "coarse-grain share of nodes",
		Notes:  "windows sweep the coarse region across the node ID space (Fig. 23 pseudocode)",
	}
	share := make([]float64, 4)
	for w, iter := range []int{5, 15, 25, 33} {
		coarse := 0
		for v := 0; v < n; v++ {
			if grain(graph.NodeID(v), iter) == workload.CoarseGrain {
				coarse++
			}
		}
		share[w] = float64(coarse) / n
	}
	f.Series = []Series{{Name: "64-node graph", Y: share}}
	return f, nil
}

func init() {
	Registry["table2"] = scenarioTable("table2",
		"Execution Time (in seconds) on 32-node Hexagonal Grids", "hex32-fine")
	Registry["table3"] = scenarioTable("table3",
		"Execution Time (in seconds) on 64-node Hexagonal Grids", "hex64-fine")
	Registry["table4"] = scenarioTable("table4",
		"Execution Time (in seconds) on 96-node Hexagonal Grids", "hex96-fine")
	Registry["table5"] = scenarioTable("table5",
		"Execution Time (in seconds) on 32-node Random Graphs", "random32-fine")
	Registry["table6"] = scenarioTable("table6",
		"Execution Time (in seconds) on 64-node Random Graphs", "random64-fine")
	Registry["fig11"] = fig11
	Registry["fig12"] = metisVsPaGrid("fig12",
		"Metis vs PaGrid for Fine and Coarse Grained 64-node Hexagonal Grids",
		"hex64-fine", "hex64-coarse")
	Registry["fig13"] = staticVsDynamic("fig13",
		"Static v Dynamic Partitioning on 64-node Hexagonal Grids",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(64) })
	Registry["fig14"] = staticVsDynamic("fig14",
		"Static v Dynamic Partitioning on 32-node Hexagonal Grids",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(32) })
	Registry["fig15"] = staticVsDynamic("fig15",
		"Static v Dynamic Partitioning on 96-node Hexagonal Grids",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(96) })
	Registry["fig16"] = fig16
	Registry["fig17"] = metisVsPaGrid("fig17",
		"Metis vs PaGrid on Fine and Coarse Grained 64-node Random Graphs",
		"random64-fine", "random64-coarse")
	Registry["fig18"] = staticVsDynamic("fig18",
		"Performance of Dynamic Partitioning on 64-node Random Graphs",
		func() (*graph.Graph, error) { return graph.PaperRandom(64) })
	Registry["fig19"] = staticVsDynamic("fig19",
		"Performance of Dynamic Partitioning on 32-node Random Graphs",
		func() (*graph.Graph, error) { return graph.PaperRandom(32) })
	Registry["fig21"] = overheadFigure("fig21",
		"Overheads in iC2mpi Platform for fine grained 64-node Hexagonal Grids",
		func() (*graph.Graph, error) { return graph.PaperHexGrid(64) })
	Registry["fig22"] = overheadFigure("fig22",
		"Overheads in iC2mpi Platform for fine grained 64-node Random Graphs",
		func() (*graph.Graph, error) { return graph.PaperRandom(64) })
	Registry["fig23"] = fig23
}
