package experiments

import (
	"fmt"

	"ic2mpi/internal/scenario"
)

// Procs is the processor sweep of every experiment in the paper.
var Procs = []int{1, 2, 4, 8, 16}

// procLabels renders the processor sweep as column headers.
func procLabels() []string {
	out := make([]string, len(Procs))
	for i, p := range Procs {
		out[i] = fmt.Sprint(p)
	}
	return out
}

// mustScenario resolves a registered scenario the experiments depend on;
// a missing name is a programming error caught by the registry tests.
func mustScenario(name string) scenario.Scenario {
	sc, err := scenario.Get(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// executionTimeTable builds a Tables 2-11 style report from one sweep of sc:
// ax names the iteration (or simulation step) counts, one table row each,
// and whatever else the table fixes; the processor axis stays at the
// paper's sweep, one column each.
func executionTimeTable(id, title, rowHeader string, sc scenario.Scenario, ax Axes) (*Table, error) {
	rep, err := RunSweep(sc, ax)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:        id,
		Title:     title,
		RowHeader: rowHeader,
		Cols:      procLabels(),
	}
	for g := 0; g < len(rep.Rows); g += len(Procs) {
		group := rep.Rows[g : g+len(Procs)]
		row := make([]float64, len(group))
		for j := range group {
			row[j] = group[j].Elapsed
		}
		t.Rows = append(t.Rows, fmt.Sprint(group[0].Params.Iterations))
		t.Values = append(t.Values, row)
	}
	return t, nil
}

// timesFor measures a scenario across the processor sweep: one sweep row
// per entry of Procs, each carrying its elapsed time and its speedup over
// the sweep's own 1-processor run. partitioner and balancer override the
// scenario's defaults when non-empty ("none" explicitly disables balancing
// — the static baseline of a scenario that defaults to a dynamic
// balancer).
func timesFor(sc scenario.Scenario, partitioner string, iters int, balancer string) ([]SweepRow, error) {
	rep, err := RunSweep(sc, Axes{
		Partitioners: []string{partitioner},
		Iterations:   []int{iters},
		Balancers:    []string{balancer},
	})
	if err != nil {
		return nil, err
	}
	return rep.Rows, nil
}

// speedupSeries is the figure line of one timesFor sweep.
func speedupSeries(name string, rows []SweepRow) Series {
	y := make([]float64, len(rows))
	for i := range rows {
		y[i] = rows[i].Speedup
	}
	return Series{Name: name, Y: y}
}
