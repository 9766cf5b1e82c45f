package trace_test

// Golden trace determinism, mirroring TestExchangeDeterminism one level
// up the stack: the JSONL encoding of a traced run is a pure function of
// the configuration. The same scenario traced twice must produce
// byte-identical output, pinned against a checked-in golden file.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// heatTrace runs the heat scenario (4 procs, 12 iterations) on the given
// interconnect model and returns its JSONL trace.
func heatTrace(t *testing.T, network string) []byte {
	return heatTracePerturbed(t, network, "")
}

// heatTracePerturbed is heatTrace with a fault-injection schedule.
func heatTracePerturbed(t *testing.T, network, perturb string) []byte {
	return heatTraceKernel(t, network, perturb, "")
}

// heatTraceKernel is heatTracePerturbed with an explicit execution kernel.
func heatTraceKernel(t *testing.T, network, perturb, kernel string) []byte {
	t.Helper()
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := sc.Run(scenario.Params{Procs: 4, Iterations: 12, Network: network, Perturb: perturb, Kernel: kernel, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenHeatTrace(t *testing.T) {
	golden := filepath.Join("testdata", "heat-4proc-12iter.jsonl")
	got := heatTrace(t, "")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverged from %s (%d vs %d bytes); regenerate with -update if the change is intended",
			golden, len(got), len(want))
	}

	// Byte-identical across repeated runs.
	if again := heatTrace(t, ""); !bytes.Equal(got, again) {
		t.Error("trace differs between two identical runs")
	}
	// The scenario default machine IS the hypercube: naming it must
	// change nothing. This pins the seed timeline across the netmodel
	// refactor.
	if hyper := heatTrace(t, "hypercube"); !bytes.Equal(got, hyper) {
		t.Error("explicit hypercube differs from the scenario default")
	}
	// The one-worker run must reproduce the golden bytes too, as the
	// default name at the automatic worker count did above: the trace
	// observes the virtual timeline, and the timeline is a pure function
	// of the simulated program, not of how the host schedules its ranks.
	// The golden predates the engine; it was recorded with one goroutine
	// per rank.
	if event := heatTraceKernel(t, "", "", "event"); !bytes.Equal(got, event) {
		t.Error("event-kernel trace differs from the golden trace")
	}
}

// TestGoldenHeatTraceBrownout extends the golden-trace contract to a
// perturbed machine: the canonical mid-run brownout (one seed-chosen
// processor 3x slower for the middle third of the run) must produce a
// byte-identical trace across repeats, pinned against a checked-in
// golden. The trace must visibly differ from the unperturbed one (samples
// carry speed_factor and the browned-out iterations stretch), or the fault
// layer did nothing.
func TestGoldenHeatTraceBrownout(t *testing.T) {
	golden := filepath.Join("testdata", "heat-4proc-12iter-brownout.jsonl")
	got := heatTracePerturbed(t, "", "brownout")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverged from %s (%d vs %d bytes); regenerate with -update if the change is intended",
			golden, len(got), len(want))
	}
	if again := heatTracePerturbed(t, "", "brownout"); !bytes.Equal(got, again) {
		t.Error("perturbed trace differs between two identical runs")
	}
	if static := heatTrace(t, ""); bytes.Equal(got, static) {
		t.Error("brownout trace is identical to the unperturbed trace; fault injection had no effect")
	}
	if !bytes.Contains(got, []byte(`"speed_factor":`)) {
		t.Error("brownout trace carries no speed_factor fields")
	}
	// The event kernel must reproduce the perturbed golden byte for byte:
	// epoch advancement and time-varying pricing behave identically under
	// the discrete-event scheduler.
	if event := heatTraceKernel(t, "", "brownout", "event"); !bytes.Equal(got, event) {
		t.Error("event-kernel brownout trace differs from the golden goroutine-kernel trace")
	}
}

// TestGoldenHeatTracePerNetwork pins one golden trace per interconnect
// model: the determinism contract holds machine by machine, and the
// timelines are pinned against checked-in files so a costing change
// cannot slip by unnoticed.
func TestGoldenHeatTracePerNetwork(t *testing.T) {
	for _, network := range netmodel.Names() {
		t.Run(network, func(t *testing.T) {
			golden := filepath.Join("testdata", "heat-4proc-12iter-"+network+".jsonl")
			got := heatTrace(t, network)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/trace -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from %s (%d vs %d bytes); regenerate with -update if the change is intended",
					golden, len(got), len(want))
			}
		})
	}
}
