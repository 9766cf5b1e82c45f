package experiments

// Tables 7-11 and Figure 20: the 32x32-hex battlefield management
// simulation under five static partitioning schemes, varying simulation
// steps and processor counts. The workload is the registered
// "battlefield" scenario; only the partitioner axis varies.

var battlefieldSteps = []int{5, 15, 25}

// battlefieldPartitioners maps table IDs to partitioner names and paper
// titles.
var battlefieldPartitioners = []struct {
	id, part, title string
}{
	{"table7", "metis", "Execution Time (in seconds) of Battlefield Simulator using Metis"},
	{"table8", "bf", "Execution Time (in seconds) of Battlefield Simulator using Fine-Grained Mesh-to-Hypercube Embedding (BF Partition)"},
	{"table9", "rowband", "Execution Time (in seconds) of Battlefield Simulator using Row Band Partition"},
	{"table10", "colband", "Execution Time (in seconds) of Battlefield Simulator using Column Band Partition"},
	{"table11", "rectband", "Execution Time (in seconds) of Battlefield Simulator using Rectangular Partition"},
}

func battlefieldTable(id, partName, title string) Runner {
	return func() (Report, error) {
		return executionTimeTable(id, title, "Sim. Steps", mustScenario("battlefield"),
			Axes{Iterations: battlefieldSteps, Partitioners: []string{partName}})
	}
}

// fig20 plots battlefield speedup at 25 steps for all five partitioners.
func fig20() (Report, error) {
	sc := mustScenario("battlefield")
	f := &Figure{
		ID: "fig20", Title: "Performance of Battlefield Management Simulation for different Static Partitioning Algorithms",
		XLabel: "Processor", X: procLabels(), YLabel: "Speed-up",
	}
	names := []struct{ part, label string }{
		{"metis", "Metis"},
		{"bf", "BF Partition"},
		{"rowband", "Row Band"},
		{"colband", "Column Band"},
		{"rectband", "Rectangular"},
	}
	for _, n := range names {
		rows, err := timesFor(sc, n.part, 25, "none")
		if err != nil {
			return nil, err
		}
		f.Series = append(f.Series, speedupSeries(n.label, rows))
	}
	return f, nil
}

func init() {
	for _, b := range battlefieldPartitioners {
		Registry[b.id] = battlefieldTable(b.id, b.part, b.title)
	}
	Registry["fig20"] = fig20
}
