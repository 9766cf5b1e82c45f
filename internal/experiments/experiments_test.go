package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table (2-11) and figure (11-23 except the architecture
	// figures) of the evaluation must be registered.
	want := []string{
		"table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9", "table10", "table11",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) == 0 || ids[0] != "table2" {
		t.Fatalf("IDs() = %v", ids)
	}
	// Tables come before figures.
	sawFig := false
	for _, id := range ids {
		if strings.HasPrefix(id, "fig") {
			sawFig = true
		}
		if strings.HasPrefix(id, "table") && sawFig {
			t.Fatalf("table after figure in %v", ids)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID: "tableX", Title: "Demo", RowHeader: "Iterations",
		Rows: []string{"10", "20"}, Cols: []string{"1", "2"},
		Values: [][]float64{{1.5, 0.75}, {3, 1.5}},
		Notes:  "demo note",
	}
	out := tab.Format()
	for _, want := range []string{"tableX", "Demo", "Iterations", "1.5000", "0.7500", "demo note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureFormat(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "Demo", XLabel: "Processor", YLabel: "Speed-up",
		X:      []string{"1", "2"},
		Series: []Series{{Name: "a", Y: []float64{1, 1.9}}},
	}
	out := fig.Format()
	for _, want := range []string{"figX", "Speed-up", "1.900"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

// TestTable2ShapeMatchesPaper checks the qualitative properties of the
// smallest execution-time table: times grow with iterations, shrink
// (or at worst plateau) with processors at low counts, and 1-processor
// runs land in the right absolute range (the paper's Table 2 reports
// 0.209s at 20 iterations).
func TestTable2ShapeMatchesPaper(t *testing.T) {
	rep, err := Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.(*Table)
	for i := 1; i < len(tab.Rows); i++ {
		for j := range tab.Cols {
			if tab.Values[i][j] <= tab.Values[i-1][j] {
				t.Errorf("col %s: time did not grow with iterations (%.4f -> %.4f)",
					tab.Cols[j], tab.Values[i-1][j], tab.Values[i][j])
			}
		}
	}
	last := tab.Values[len(tab.Rows)-1]
	if last[0] < 0.1 || last[0] > 0.4 {
		t.Errorf("serial 20-iteration time %.4f outside the paper's ballpark (0.209)", last[0])
	}
	// Speedup from 1 to 8 processors must be substantial.
	if last[0]/last[3] < 3 {
		t.Errorf("speedup at 8 procs only %.2f", last[0]/last[3])
	}
}

// TestFig12Shape checks the Metis-vs-PaGrid figure properties: coarse
// grain beats fine grain for both partitioners.
func TestFig12Shape(t *testing.T) {
	rep, err := Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.(*Figure)
	if len(fig.Series) != 4 {
		t.Fatalf("fig12 has %d series", len(fig.Series))
	}
	lastIdx := len(fig.X) - 1
	fineMetis, coarseMetis := fig.Series[0].Y[lastIdx], fig.Series[1].Y[lastIdx]
	finePaGrid, coarsePaGrid := fig.Series[2].Y[lastIdx], fig.Series[3].Y[lastIdx]
	if coarseMetis <= fineMetis {
		t.Errorf("Metis: coarse speedup %.2f not above fine %.2f", coarseMetis, fineMetis)
	}
	if coarsePaGrid <= finePaGrid {
		t.Errorf("PaGrid: coarse speedup %.2f not above fine %.2f", coarsePaGrid, finePaGrid)
	}
}

// TestFig20Shape checks the battlefield partitioner comparison: Metis and
// the band partitioners beat the fine-grained BF embedding everywhere past
// one processor, and BF is catastrophically slower than serial at 2 procs
// relative to its own baseline (the paper's Table 8 shows 2-proc runs
// slower than 1-proc).
func TestFig20Shape(t *testing.T) {
	rep, err := Run("fig20")
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.(*Figure)
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	bf := series["BF Partition"]
	metis := series["Metis"]
	if bf == nil || metis == nil {
		t.Fatalf("missing series in %v", fig.Series)
	}
	for i := 1; i < len(fig.X); i++ {
		if bf[i] >= metis[i] {
			t.Errorf("at %s procs BF speedup %.2f >= Metis %.2f", fig.X[i], bf[i], metis[i])
		}
	}
}

func TestFig23Schedule(t *testing.T) {
	rep, err := Run("fig23")
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.(*Figure)
	y := fig.Series[0].Y
	// Each of the three windows puts half the nodes at coarse grain; the
	// tail window (iters 31-35) has none.
	for i := 0; i < 3; i++ {
		if y[i] != 0.5 {
			t.Errorf("window %d coarse share %.2f, want 0.5", i, y[i])
		}
	}
	if y[3] != 0 {
		t.Errorf("tail window coarse share %.2f, want 0", y[3])
	}
}

func TestMustScenarioUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustScenario on unknown name did not panic")
		}
	}()
	mustScenario("bogus")
}

func TestTimesForDefaults(t *testing.T) {
	rows, err := timesFor(mustScenario("hex32-fine"), "", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Procs) {
		t.Fatalf("timesFor returned %d rows", len(rows))
	}
	for i, row := range rows {
		if row.Params.Procs != Procs[i] || row.Elapsed <= 0 {
			t.Fatalf("row %d: %d procs, elapsed %v; want %d procs and a positive time", i, row.Params.Procs, row.Elapsed, Procs[i])
		}
		if want := rows[0].Elapsed / row.Elapsed; row.Speedup != want {
			t.Errorf("at %d procs speedup %v, want %v over the sweep's own 1-processor run", Procs[i], row.Speedup, want)
		}
	}
}

// TestFig18DynamicShape guards the headline load-balancing result: under
// the Fig. 23 imbalance, the dynamic load balancing utility beats the
// static partition at 4 and 8 processors (the regime where migration
// granularity allows a win — see docs/scenarios.md, imbalance, for the
// 16-processor deviation).
func TestFig18DynamicShape(t *testing.T) {
	rep, err := Run("fig18")
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.(*Figure)
	if len(fig.Series) != 2 {
		t.Fatalf("fig18 has %d series", len(fig.Series))
	}
	dyn, static := fig.Series[0].Y, fig.Series[1].Y
	// X = [1, 2, 4, 8, 16]; check indices 2 and 3 (4 and 8 procs).
	for _, i := range []int{2, 3} {
		if dyn[i] <= static[i] {
			t.Errorf("at %s procs dynamic %.2f not above static %.2f", fig.X[i], dyn[i], static[i])
		}
	}
	// At 2 procs dynamic must at least hold parity (within 3%).
	if dyn[1] < static[1]*0.97 {
		t.Errorf("at 2 procs dynamic %.2f well below static %.2f", dyn[1], static[1])
	}
}

// TestFig21OverheadShape guards the paper's overhead finding: compute and
// computation overhead fall with processor count, and communication-
// related time dominates all platform overheads.
func TestFig21OverheadShape(t *testing.T) {
	rep, err := Run("fig21")
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.(*Figure)
	byName := map[string][]float64{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Y
	}
	compute := byName["Compute"]
	commOverhead := byName["Communication Overhead"]
	communicate := byName["Communicate"]
	compOverhead := byName["Computation Overhead"]
	if compute == nil || commOverhead == nil || communicate == nil || compOverhead == nil {
		t.Fatalf("missing series: %v", fig.Series)
	}
	last := len(fig.X) - 1
	if compute[last] >= compute[0] || compOverhead[last] >= compOverhead[0] {
		t.Error("compute/computation overhead did not fall with processor count")
	}
	commTotal := commOverhead[last] + communicate[last]
	if commTotal <= compOverhead[last] {
		t.Errorf("communication-related time %.4f not dominant over computation overhead %.4f",
			commTotal, compOverhead[last])
	}
}
