package server

// Streaming conformance: the live trace feed must carry the exact bytes
// of the canonical post-run trace encoding, released in canonical order
// while ranks are still recording concurrently. The HTTP test pins the
// end-to-end property; the unit test pins the cell-order release rule
// against an adversarial arrival order (internal/trace pins the trace
// watermark).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// collectStream drains a stream's buffered lines as (kind, data) pairs.
func collectStream(st *stream) []streamLine {
	lines, _, _ := st.snapshot(0)
	return lines
}

// TestCellTrackerOrder completes cells out of order and asserts events
// stream strictly in index order.
func TestCellTrackerOrder(t *testing.T) {
	st := newStream()
	tr := newCellTracker(st, 4)
	ev := func(i int) cellEvent { return cellEvent{Kind: "cell", Index: i, Of: 4} }
	tr.cellDone(2, ev(2))
	tr.cellDone(3, ev(3))
	if n := len(collectStream(st)); n != 0 {
		t.Fatalf("released %d events before cell 0 finished", n)
	}
	tr.cellDone(0, ev(0))
	if n := len(collectStream(st)); n != 1 {
		t.Fatalf("after cell 0: %d events, want 1", n)
	}
	tr.cellDone(1, ev(1))
	lines := collectStream(st)
	if len(lines) != 4 {
		t.Fatalf("after all cells: %d events, want 4", len(lines))
	}
	for i, ln := range lines {
		var e cellEvent
		if err := json.Unmarshal(ln.data, &e); err != nil || e.Index != i {
			t.Errorf("event %d has index %d (err %v)", i, e.Index, err)
		}
	}
}

// TestTraceJobByteIdentity runs a traced imbalance job (its balancer
// migrates work, covering migration lines) and asserts three encodings
// agree byte-for-byte: the live-streamed trace lines, the stored
// /trace document, and a direct engine run's trace.WriteJSONL.
func TestTraceJobByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id, _ := submit(t, ts, `{"scenario":"imbalance","sweep":"procs=4;iters=8","trace":true}`, nil)

	// Subscribe live: this request follows the run and returns at the
	// final state line, while ranks are still recording concurrently.
	streamed := do(t, ts, "GET", "/v1/jobs/"+id+"/stream", "", nil)
	var fromStream bytes.Buffer
	for _, line := range bytes.Split(streamed.body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			t.Fatalf("stream line is not JSON: %q", line)
		}
		switch kind.Kind {
		case "sample", "migration", "series":
			fromStream.Write(line)
			fromStream.WriteByte('\n')
		}
	}

	doc := decodeJob(t, waitFinal(t, ts, id).body)
	if doc.State != StateDone {
		t.Fatalf("trace job finished %s: %s", doc.State, doc.Error)
	}
	stored := do(t, ts, "GET", "/v1/jobs/"+id+"/trace", "", nil)
	if stored.status != http.StatusOK {
		t.Fatalf("trace: got %d\n%s", stored.status, stored.body)
	}
	if ct := stored.header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace Content-Type = %q", ct)
	}

	sc, err := scenario.Get("imbalance")
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := sc.Run(scenario.Params{Procs: 4, Iterations: 8, Host: platform.Host{Trace: rec}}); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := trace.WriteJSONL(&direct, rec); err != nil {
		t.Fatal(err)
	}
	if direct.Len() == 0 || !bytes.Contains(direct.Bytes(), []byte(`"kind":"migration"`)) {
		t.Fatal("reference trace has no migrations; the scenario no longer covers migration streaming")
	}

	if !bytes.Equal(fromStream.Bytes(), direct.Bytes()) {
		t.Errorf("live-streamed trace differs from direct trace.WriteJSONL")
	}
	if !bytes.Equal(stored.body, direct.Bytes()) {
		t.Errorf("/trace document differs from direct trace.WriteJSONL")
	}
}

// TestTraceEndpointConflicts pins the structured errors of the trace
// surface: not-traced jobs and not-yet-done jobs both refuse.
func TestTraceEndpointConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=1;iters=2"}`, nil)
	waitFinal(t, ts, id)
	r := do(t, ts, "GET", "/v1/jobs/"+id+"/trace", "", nil)
	if r.status != http.StatusConflict {
		t.Fatalf("trace of untraced job: got %d, want 409", r.status)
	}
	golden(t, "trace_not_traced.json", r.body)

	// A traced job's result is the one-row aggregate report.
	id, _ = submit(t, ts, `{"scenario":"heat","sweep":"procs=2;iters=3","trace":true}`, nil)
	waitFinal(t, ts, id)
	res := do(t, ts, "GET", "/v1/jobs/"+id+"/result", "", nil)
	if res.status != http.StatusOK {
		t.Fatalf("traced job result: got %d", res.status)
	}
	golden(t, "result_traced_heat.json", res.body)
}

// TestTracedResultEqualsUntraced: a traced job's result is its one-cell
// sweep's report, byte for byte the untraced job's — also at procs=1,
// where the cell is its own speedup baseline.
func TestTracedResultEqualsUntraced(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	result := func(spec string) []byte {
		t.Helper()
		id, _ := submit(t, ts, spec, nil)
		waitFinal(t, ts, id)
		r := do(t, ts, "GET", "/v1/jobs/"+id+"/result", "", nil)
		if r.status != http.StatusOK {
			t.Fatalf("%s: result got %d\n%s", spec, r.status, r.body)
		}
		return r.body
	}
	plain := result(`{"scenario":"heat","sweep":"procs=1;iters=3"}`)
	traced := result(`{"scenario":"heat","sweep":"procs=1;iters=3","trace":true}`)
	if !bytes.Equal(traced, plain) {
		t.Errorf("traced result differs from the untraced one\n--- traced ---\n%s--- untraced ---\n%s", traced, plain)
	}
}
