package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ic2mpi/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedReports returns one synthetic report of each kind with hand-picked
// values, so the goldens pin the encoding itself, not any experiment.
func fixedReports() []Report {
	table := &Table{
		ID: "tableX", Title: "Demo Table", RowHeader: "Iterations",
		Rows: []string{"10", "20"}, Cols: []string{"1", "2"},
		Values: [][]float64{{1.5, 0.75}, {3, 1.5}},
		Notes:  "demo note",
	}
	figure := &Figure{
		ID: "figX", Title: "Demo Figure", XLabel: "Processor", YLabel: "Speed-up",
		X:      []string{"1", "2"},
		Series: []Series{{Name: "a", Y: []float64{1, 1.9}}, {Name: "b", Y: []float64{1, 1.5}}},
	}
	sweep := &SweepReport{
		ID: "sweep-demo", Title: "Demo Sweep", Scenario: "demo",
		Rows: []SweepRow{
			{
				Result: scenario.Result{
					Scenario: "demo",
					Params: scenario.Params{
						Procs: 1, Partitioner: "metis", Exchange: "basic",
						Buffers: "pooled", Balancer: "none", Network: "hypercube",
						Perturb: "none", Iterations: 5, Kernel: "goroutine",
					},
					Elapsed: 0.25, EdgeCut: 10, Imbalance: 1.125,
					MessagesSent: 0, BytesSent: 0,
				},
				Speedup: 1,
			},
			{
				Result: scenario.Result{
					Scenario: "demo",
					Params: scenario.Params{
						Procs: 2, Partitioner: "metis", Exchange: "basic",
						Buffers: "pooled", Balancer: "none", Network: "hypercube",
						Perturb: "brownout@2", Iterations: 5, Kernel: "event",
					},
					Elapsed: 0.125, EdgeCut: 10, Imbalance: 1.125,
					Migrations: 3, MessagesSent: 40, BytesSent: 640,
				},
				Speedup: 2,
			},
		},
	}
	return []Report{table, figure, sweep}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWriteReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, "json", fixedReports()...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports.json.golden", buf.Bytes())
}

func TestWriteReportCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, "csv", fixedReports()...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports.csv.golden", buf.Bytes())
}

func TestWriteReportTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, "text", fixedReports()...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reports.txt.golden", buf.Bytes())
}

func TestWriteReportUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, "yaml", fixedReports()...); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestSweepJSONDeterministic is the acceptance gate for machine-readable
// sweeps: two runs of the same sweep must encode to byte-identical JSON
// (deterministic virtual time end to end).
func TestSweepJSONDeterministic(t *testing.T) {
	sc := mustScenario("hex32-fine")
	ax, err := ParseAxes("procs=1,2,4;iters=5;exchange=basic,overlap")
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		rep, err := RunSweep(sc, ax)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, "json", rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("sweep JSON not byte-identical across runs:\n%s\n---\n%s", a, b)
	}
}

func TestRunSweepSpeedupsAndOrder(t *testing.T) {
	sc := mustScenario("hex32-fine")
	ax, err := ParseAxes("procs=1,2;iters=5;balancer=none,centralized")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Size(); got != 4 {
		t.Fatalf("Size() = %d, want 4", got)
	}
	rep, err := RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("sweep produced %d rows, want 4", len(rep.Rows))
	}
	// Order: balancer axis outer, procs inner. The requested balancer is
	// echoed even at procs=1 (where it cannot act), so each group keeps a
	// distinguishable baseline row.
	wantBal := []string{"none", "none", "centralized", "centralized"}
	wantProcs := []int{1, 2, 1, 2}
	for i, row := range rep.Rows {
		if row.Params.Procs != wantProcs[i] {
			t.Errorf("row %d procs = %d, want %d", i, row.Params.Procs, wantProcs[i])
		}
		if row.Params.Balancer != wantBal[i] {
			t.Errorf("row %d balancer = %q, want %q", i, row.Params.Balancer, wantBal[i])
		}
	}
	// Speedup baselines: row 0 and row 2 are 1-proc baselines.
	if rep.Rows[0].Speedup != 1 || rep.Rows[2].Speedup != 1 {
		t.Errorf("baseline speedups = %v, %v, want 1", rep.Rows[0].Speedup, rep.Rows[2].Speedup)
	}
	if rep.Rows[1].Speedup <= 1 {
		t.Errorf("2-proc speedup = %v, want > 1", rep.Rows[1].Speedup)
	}
}

func TestParseAxesErrors(t *testing.T) {
	for _, spec := range []string{
		"procs", "procs=", "procs=zero", "procs=0", "iters=-3",
		"warp=9", "exchange=",
		// An axis takes its values once, whatever its kind and whichever
		// of its keys repeats it.
		"procs=2;partitioner=metis;procs=4", "iters=5;iterations=10",
		"partitioner=metis;partitioner=rcb", "kernel=event;procs=4;kernels=pevent",
	} {
		if _, err := ParseAxes(spec); err == nil {
			t.Errorf("ParseAxes(%q) accepted", spec)
		}
	}
	ax, err := ParseAxes(" procs = 1, 2 ; part = metis ")
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Procs) != 2 || len(ax.Partitioners) != 1 || ax.Partitioners[0] != "metis" {
		t.Errorf("ParseAxes tolerant parse = %+v", ax)
	}
	empty, err := ParseAxes("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Size() != len(Procs) {
		t.Errorf("empty spec Size() = %d, want %d", empty.Size(), len(Procs))
	}
}
