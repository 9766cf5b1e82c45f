package ic2mpi_test

// Worker-count determinism harness for the parallel event kernel: the
// worker count is a host-side tuning knob, so every
// observable artifact — assembled sweep report JSON, checkpoint
// snapshots, resumed runs, per-iteration traces — must be byte-identical
// at 1, 2 and 8 workers, on unperturbed and perturbed machines alike.
// Worker counts above GOMAXPROCS are deliberate: layout, staging and
// window folding must not depend on how much real parallelism the host
// provides.

import (
	"bytes"
	"encoding/json"
	"testing"

	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// TestParallelEventDeterminism sweeps hex64-coarse across networks and
// fault schedules under the pevent kernel at several worker counts and
// asserts the serialized sweep reports are byte-identical — the report
// embeds every normalized parameter and metric, so a single divergent
// clock anywhere in the sweep shows up here.
func TestParallelEventDeterminism(t *testing.T) {
	sc, err := scenario.Get("hex64-coarse")
	if err != nil {
		t.Fatal(err)
	}
	ax := experiments.Axes{
		Procs:      []int{2, 8},
		Networks:   []string{"uniform", "mesh2d", "hetgrid"},
		Perturbs:   []string{"none", "brownout", "links"},
		Kernels:    []string{"pevent"},
		Iterations: []int{6},
	}
	var baseline []byte
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		rep, err := experiments.RunSweepWith(sc, ax, func(sc scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
			p.KernelWorkers = workers
			return sc.Run(p)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := experiments.WriteReport(&buf, "json", rep); err != nil {
			t.Fatalf("workers=%d: encode report: %v", workers, err)
		}
		if baseline == nil {
			baseline = buf.Bytes()
			continue
		}
		if !bytes.Equal(baseline, buf.Bytes()) {
			t.Errorf("workers=%d: sweep report diverges from workers=1 (%d vs %d bytes)",
				workers, buf.Len(), len(baseline))
		}
	}
}

// TestParallelEventCheckpointWorkerPortability pins checkpoint/resume
// across worker layouts on a perturbed machine: a run checkpointed under
// one worker count must produce identical snapshot bytes at every worker
// count, and resuming any snapshot under a different worker count must
// reproduce the uninterrupted run exactly — result JSON and trace JSONL.
func TestParallelEventCheckpointWorkerPortability(t *testing.T) {
	sc, err := scenario.Get("hex64-coarse")
	if err != nil {
		t.Fatal(err)
	}
	base := scenario.Params{
		Procs:      8,
		Network:    "mesh2d",
		Perturb:    "brownout",
		Kernel:     "pevent",
		Iterations: 6,
	}

	// Golden uninterrupted runs at each worker count, capturing encoded
	// snapshots at every epoch; all artifacts must agree byte for byte.
	type golden struct {
		resJSON  []byte
		traceRaw []byte
		encoded  map[int][]byte
	}
	runGolden := func(workers int) golden {
		p := base
		p.KernelWorkers = workers
		var rec trace.Recorder
		p.Trace = &rec
		p.CheckpointEvery = 1
		encoded := make(map[int][]byte)
		p.CheckpointSink = func(s *platform.RunSnapshot) error {
			data, err := checkpoint.Encode(checkpoint.Meta{CellKey: "pevent-portability"}, s)
			if err != nil {
				return err
			}
			encoded[s.Iter] = data
			return nil
		}
		res, err := sc.Run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, &rec); err != nil {
			t.Fatal(err)
		}
		return golden{resJSON: resJSON, traceRaw: buf.Bytes(), encoded: encoded}
	}
	g1 := runGolden(1)
	for _, workers := range []int{2, 8} {
		g := runGolden(workers)
		if !bytes.Equal(g1.resJSON, g.resJSON) {
			t.Errorf("workers=%d: result JSON diverges from workers=1", workers)
		}
		if !bytes.Equal(g1.traceRaw, g.traceRaw) {
			t.Errorf("workers=%d: trace JSONL diverges from workers=1", workers)
		}
		for iter, data := range g.encoded {
			if !bytes.Equal(g1.encoded[iter], data) {
				t.Errorf("workers=%d: snapshot at iteration %d diverges from workers=1", workers, iter)
			}
		}
	}

	// Resume the middle snapshot under every worker count — including
	// counts different from the checkpointing run's.
	mid := base.Iterations / 2
	data := g1.encoded[mid]
	if data == nil {
		t.Fatalf("no snapshot at iteration %d", mid)
	}
	for _, workers := range []int{1, 2, 8} {
		_, snap, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		p := base
		p.KernelWorkers = workers
		p.ResumeFrom = snap
		var rec trace.Recorder
		p.Trace = &rec
		res, err := sc.Run(p)
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resJSON, g1.resJSON) {
			t.Errorf("resume workers=%d: result JSON diverges from the uninterrupted run", workers)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), g1.traceRaw) {
			t.Errorf("resume workers=%d: trace JSONL diverges from the uninterrupted run", workers)
		}
	}
}
