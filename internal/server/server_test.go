package server

// The daemon conformance suite: every endpoint is exercised through
// net/http/httptest against golden JSON fixtures (testdata/, refreshed
// with -update). Determinism makes an HTTP server goldenable: a fixed
// injectable clock (Config.Now) pins timestamps and omits host-time
// durations, one worker pins job interleaving, and all simulation
// output is virtual-time, so every response body is byte-stable.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// fixedNow returns a frozen clock; with it, queue_ns/run_ns are zero and
// omitted, so job documents depend only on the job's deterministic state.
func fixedNow() func() time.Time {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return at }
}

// newTestServer builds a daemon with a fixed clock (unless cfg overrides
// it) behind an httptest listener, torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = fixedNow()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close() // finishes jobs, closing their streams, before the listener waits
		ts.Close()
	})
	return srv, ts
}

// setGate installs the per-cell test hook and clears it on cleanup; the
// test must unblock anything the gate parked before it returns.
func setGate(t *testing.T, fn func(j *Job, cell int)) {
	t.Helper()
	testCellGate = fn
	t.Cleanup(func() { testCellGate = nil })
}

// sequentialCells pins the experiments worker pool to one cell at a time
// so cell-order-sensitive tests are deterministic.
func sequentialCells(t *testing.T) {
	t.Helper()
	old := experiments.Parallelism
	experiments.Parallelism = 1
	t.Cleanup(func() { experiments.Parallelism = old })
}

type response struct {
	status int
	header http.Header
	body   []byte
}

// do performs one request and drains the response.
func do(t *testing.T, ts *httptest.Server, method, path, body string, hdr map[string]string) response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{status: res.StatusCode, header: res.Header, body: b}
}

// jobDoc is the slice of jobView the tests decode.
type jobDoc struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error"`
}

func decodeJob(t *testing.T, body []byte) jobDoc {
	t.Helper()
	var d jobDoc
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("decoding job document: %v\n%s", err, body)
	}
	return d
}

// submit posts a job spec and returns its assigned ID.
func submit(t *testing.T, ts *httptest.Server, spec string, hdr map[string]string) (string, response) {
	t.Helper()
	r := do(t, ts, "POST", "/v1/jobs", spec, hdr)
	if r.status != http.StatusCreated {
		t.Fatalf("submit: got %d, want 201\n%s", r.status, r.body)
	}
	return decodeJob(t, r.body).ID, r
}

// waitFinal polls a job until it reaches a terminal state and returns
// the final job document response.
func waitFinal(t *testing.T, ts *httptest.Server, id string) response {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r := do(t, ts, "GET", "/v1/jobs/"+id, "", nil)
		if r.status != http.StatusOK {
			t.Fatalf("polling %s: got %d\n%s", id, r.status, r.body)
		}
		if final(decodeJob(t, r.body).State) {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not final after 30s:\n%s", id, r.body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// golden compares got against testdata/name, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (create with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// directSweepBytes runs a sweep through the experiments engine directly
// and encodes it — the reference bytes the daemon must reproduce.
func directSweepBytes(t *testing.T, scenarioName, sweep, format string) []byte {
	t.Helper()
	sc, err := scenario.Get(scenarioName)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := experiments.ParseAxes(sweep)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, format, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitPollResult is the happy path: submit a small heat sweep,
// poll it to done, and fetch a result that is byte-identical to running
// the same spec through the experiments engine directly — the daemon's
// core contract.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	id, created := submit(t, ts, `{"scenario":"heat","sweep":"procs=1,2;iters=4"}`, map[string]string{"X-Client": "conformance"})
	golden(t, "submit_created.json", created.body)
	if id != "job-000001" {
		t.Fatalf("first job ID = %q, want job-000001", id)
	}

	done := waitFinal(t, ts, id)
	if d := decodeJob(t, done.body); d.State != StateDone || d.CellsDone != 2 {
		t.Fatalf("job not cleanly done: %+v", d)
	}
	golden(t, "job_done.json", done.body)

	res := do(t, ts, "GET", "/v1/jobs/"+id+"/result", "", nil)
	if res.status != http.StatusOK {
		t.Fatalf("result: got %d\n%s", res.status, res.body)
	}
	if ct := res.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result Content-Type = %q", ct)
	}
	if h := res.header.Get("X-Cache-Hits"); h != "0" {
		t.Errorf("X-Cache-Hits = %q, want 0 on a cold cache", h)
	}
	golden(t, "result_heat.json", res.body)

	// The contract: daemon bytes == direct experiments bytes.
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	ax, err := experiments.ParseAxes("procs=1,2;iters=4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.WriteReport(&want, "json", rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.body, want.Bytes()) {
		t.Errorf("daemon result differs from direct experiments run\ndaemon:\n%s\ndirect:\n%s", res.body, want.Bytes())
	}

	list := do(t, ts, "GET", "/v1/jobs", "", nil)
	golden(t, "jobs_list.json", list.body)
	filtered := do(t, ts, "GET", "/v1/jobs?state=queued", "", nil)
	golden(t, "jobs_list_empty.json", filtered.body)
}

// TestResultFormats pins that every format the daemon serves is
// byte-identical to experiments.WriteReport on the same report, with the
// matching Content-Type.
func TestResultFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	ax, err := experiments.ParseAxes("procs=1,2;iters=3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	ctypes := map[string]string{
		"json": "application/json",
		"csv":  "text/csv; charset=utf-8",
		"text": "text/plain; charset=utf-8",
	}
	for _, format := range []string{"json", "csv", "text"} {
		spec := fmt.Sprintf(`{"scenario":"heat","sweep":"procs=1,2;iters=3","format":%q}`, format)
		id, _ := submit(t, ts, spec, nil)
		waitFinal(t, ts, id)
		res := do(t, ts, "GET", "/v1/jobs/"+id+"/result", "", nil)
		if res.status != http.StatusOK {
			t.Fatalf("%s: got %d", format, res.status)
		}
		if ct := res.header.Get("Content-Type"); ct != ctypes[format] {
			t.Errorf("%s: Content-Type = %q, want %q", format, ct, ctypes[format])
		}
		var want bytes.Buffer
		if err := experiments.WriteReport(&want, format, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.body, want.Bytes()) {
			t.Errorf("%s: daemon result differs from experiments.WriteReport", format)
		}
	}
}

// TestSubmitErrors pins the structured 400 body for every malformed-spec
// class the input boundary rejects.
func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCells: 16})
	cases := []struct {
		name string
		body string
	}{
		{"not_json", `procs=1,2`},
		{"unknown_field", `{"scenario":"heat","bogus":1}`},
		{"trailing_data", `{"scenario":"heat"} {}`},
		{"missing_scenario", `{}`},
		{"unknown_scenario", `{"scenario":"nope"}`},
		{"axes_and_sweep", `{"scenario":"heat","axes":{"procs":[1]},"sweep":"procs=2"}`},
		{"bad_sweep", `{"scenario":"heat","sweep":"procs=zero"}`},
		{"bad_axis_value", `{"scenario":"heat","axes":{"procs":[2],"partitioners":["nope"]}}`},
		{"bad_format", `{"scenario":"heat","format":"xml"}`},
		{"trace_multi_cell", `{"scenario":"heat","sweep":"procs=1,2","trace":true}`},
		{"too_many_cells", `{"scenario":"heat","sweep":"procs=1,2;iters=1,2,3,4,5,6,7,8,9"}`},
		{"too_many_procs", `{"scenario":"heat","sweep":"procs=2000000"}`},
		{"too_much_cell_work", `{"scenario":"heat","sweep":"procs=65536;iters=2000000000"}`},
		{"retired_buffers", `{"scenario":"heat","sweep":"procs=2;buffers=unpooled"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := do(t, ts, "POST", "/v1/jobs", tc.body, nil)
			if r.status != http.StatusBadRequest {
				t.Fatalf("got %d, want 400\n%s", r.status, r.body)
			}
			golden(t, filepath.Join("errors", tc.name+".json"), r.body)
		})
	}

	t.Run("body_too_large", func(t *testing.T) {
		r := do(t, ts, "POST", "/v1/jobs", strings.Repeat("x", maxBodyBytes+1), nil)
		if r.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("got %d, want 413", r.status)
		}
		golden(t, filepath.Join("errors", "body_too_large.json"), r.body)
	})

	// The list filter is an input boundary too: a state that does not exist
	// is a 400 naming the five that do, not an empty list — which is what
	// every real state answers here, as no filter does.
	t.Run("bad_state_filter", func(t *testing.T) {
		r := do(t, ts, "GET", "/v1/jobs?state=bogus", "", nil)
		if r.status != http.StatusBadRequest {
			t.Fatalf("got %d, want 400\n%s", r.status, r.body)
		}
		golden(t, filepath.Join("errors", "bad_state_filter.json"), r.body)
		for _, state := range append(states, "") {
			r := do(t, ts, "GET", "/v1/jobs?state="+state, "", nil)
			if r.status != http.StatusOK {
				t.Errorf("?state=%s: got %d, want 200", state, r.status)
			}
			golden(t, "jobs_list_empty.json", r.body)
		}
	})

	// Nothing above must have created a job.
	if r := do(t, ts, "GET", "/v1/jobs", "", nil); !bytes.Contains(r.body, []byte(`"jobs": []`)) {
		t.Errorf("rejected submits created jobs:\n%s", r.body)
	}
}

// TestNotFound pins the 404 body and covers every {id} route.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	r := do(t, ts, "GET", "/v1/jobs/job-999999", "", nil)
	if r.status != http.StatusNotFound {
		t.Fatalf("got %d, want 404", r.status)
	}
	golden(t, "not_found.json", r.body)
	for _, p := range []string{"/result", "/trace", "/stream", "/cancel"} {
		method := "GET"
		if p == "/cancel" {
			method = "POST"
		}
		if r := do(t, ts, method, "/v1/jobs/job-999999"+p, "", nil); r.status != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", p, r.status)
		}
	}
}

// TestCancelQueued cancels a job that has not started (a gated job holds
// the single worker) and pins the cancelled document and the conflict on
// double-cancel.
func TestCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	setGate(t, func(j *Job, cell int) {
		if j.ID == "job-000001" {
			<-release
		}
	})

	submit(t, ts, `{"scenario":"heat","sweep":"procs=1;iters=2"}`, nil)          // occupies the worker
	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=2;iters=2"}`, nil) // stays queued

	r := do(t, ts, "POST", "/v1/jobs/"+id+"/cancel", "", nil)
	if r.status != http.StatusOK {
		t.Fatalf("cancel: got %d\n%s", r.status, r.body)
	}
	golden(t, "cancel_queued.json", r.body)

	again := do(t, ts, "DELETE", "/v1/jobs/"+id, "", nil)
	if again.status != http.StatusConflict {
		t.Fatalf("double cancel: got %d, want 409", again.status)
	}
	golden(t, "cancel_already_final.json", again.body)

	once.Do(func() { close(release) })
	if d := decodeJob(t, waitFinal(t, ts, "job-000001").body); d.State != StateDone {
		t.Fatalf("gated job finished %s, want done", d.State)
	}
}

// TestCancelRunning gates a three-cell sweep at its second cell, cancels
// mid-run, and pins both the acknowledgement (still running, one cell
// done) and the final cancelled document. The runner observes the flag
// at the next cell boundary.
func TestCancelRunning(t *testing.T) {
	sequentialCells(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	reached := make(chan struct{})
	release := make(chan struct{})
	var reachedOnce, releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	setGate(t, func(j *Job, cell int) {
		if cell == 1 {
			reachedOnce.Do(func() { close(reached) })
			<-release
		}
	})

	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=1,2,4;iters=2"}`, nil)
	<-reached

	ack := do(t, ts, "POST", "/v1/jobs/"+id+"/cancel", "", nil)
	if ack.status != http.StatusOK {
		t.Fatalf("cancel: got %d\n%s", ack.status, ack.body)
	}
	if d := decodeJob(t, ack.body); d.State != StateRunning || d.CellsDone != 1 {
		t.Fatalf("cancel ack: %+v, want running with 1 cell done", d)
	}
	golden(t, "cancel_running_ack.json", ack.body)

	releaseOnce.Do(func() { close(release) })
	final := waitFinal(t, ts, id)
	if d := decodeJob(t, final.body); d.State != StateCancelled || d.CellsDone != 1 {
		t.Fatalf("after cancel: %+v, want cancelled with 1 cell done", d)
	}
	golden(t, "cancel_running_final.json", final.body)

	res := do(t, ts, "GET", "/v1/jobs/"+id+"/result", "", nil)
	if res.status != http.StatusConflict {
		t.Fatalf("result of cancelled job: got %d, want 409", res.status)
	}
	golden(t, "result_not_done.json", res.body)
}

// TestStreamReplay pins the full NDJSON and SSE event streams of a
// completed sweep job. Replay-after-completion and the live feed carry
// identical bytes (TestStreamLiveEqualsReplay), so goldening the replay
// pins the live protocol too.
func TestStreamReplay(t *testing.T) {
	sequentialCells(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=1,2;iters=3"}`, nil)
	waitFinal(t, ts, id)

	nd := do(t, ts, "GET", "/v1/jobs/"+id+"/stream", "", nil)
	if ct := nd.header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("NDJSON Content-Type = %q", ct)
	}
	golden(t, "stream_sweep.ndjson", nd.body)

	sse := do(t, ts, "GET", "/v1/jobs/"+id+"/stream", "", map[string]string{"Accept": "text/event-stream"})
	if ct := sse.header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE Content-Type = %q", ct)
	}
	golden(t, "stream_sweep.sse", sse.body)
}

// TestStreamLiveEqualsReplay subscribes while the job runs and asserts
// the live bytes equal a replay after completion — the stream is a pure
// function of the job, not of subscription timing.
func TestStreamLiveEqualsReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=1,2,4;iters=4"}`, nil)
	live := do(t, ts, "GET", "/v1/jobs/"+id+"/stream", "", nil) // follows until the final state line
	replay := do(t, ts, "GET", "/v1/jobs/"+id+"/stream", "", nil)
	if !bytes.Equal(live.body, replay.body) {
		t.Errorf("live stream differs from replay\nlive:\n%s\nreplay:\n%s", live.body, replay.body)
	}
	if !bytes.HasSuffix(bytes.TrimRight(live.body, "\n"), []byte(`"state":"done"}`)) {
		t.Errorf("stream does not end with the done state line:\n%s", live.body)
	}
}

// TestAuth pins the bearer-token middleware: /v1/* requires the token,
// health and readiness stay open.
func TestAuth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, AuthToken: "sekrit"})
	r := do(t, ts, "GET", "/v1/jobs", "", nil)
	if r.status != http.StatusUnauthorized {
		t.Fatalf("no token: got %d, want 401", r.status)
	}
	golden(t, "auth_401.json", r.body)
	if r := do(t, ts, "GET", "/v1/jobs", "", map[string]string{"Authorization": "Bearer wrong"}); r.status != http.StatusUnauthorized {
		t.Errorf("wrong token: got %d, want 401", r.status)
	}
	if r := do(t, ts, "GET", "/v1/jobs", "", map[string]string{"Authorization": "Bearer sekrit"}); r.status != http.StatusOK {
		t.Errorf("right token: got %d, want 200", r.status)
	}
	if r := do(t, ts, "GET", "/healthz", "", nil); r.status != http.StatusOK {
		t.Errorf("healthz with auth on: got %d, want 200", r.status)
	}
	if r := do(t, ts, "GET", "/readyz", "", nil); r.status != http.StatusOK {
		t.Errorf("readyz with auth on: got %d, want 200", r.status)
	}
}

// TestDrainAndQueueFull drives the daemon through its shutdown story:
// queue overflow while a gated job holds the worker, then Drain —
// readiness flips, submits 503, the queued job is cancelled, and the
// running job finishes.
func TestDrainAndQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	started := make(chan struct{})
	var startedOnce sync.Once
	setGate(t, func(j *Job, cell int) {
		if j.ID == "job-000001" {
			startedOnce.Do(func() { close(started) })
			<-release
		}
	})

	golden(t, "healthz.json", do(t, ts, "GET", "/healthz", "", nil).body)
	golden(t, "readyz_ok.json", do(t, ts, "GET", "/readyz", "", nil).body)

	submit(t, ts, `{"scenario":"heat","sweep":"procs=1;iters=2"}`, nil) // job-000001, holds the worker
	<-started                                                           // queue is drained to the worker before we fill it
	queuedID, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=2;iters=2"}`, nil)

	full := do(t, ts, "POST", "/v1/jobs", `{"scenario":"heat","sweep":"procs=4;iters=2"}`, nil)
	if full.status != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: got %d, want 503\n%s", full.status, full.body)
	}
	golden(t, "queue_full.json", full.body)

	srv.Drain()

	ready := do(t, ts, "GET", "/readyz", "", nil)
	if ready.status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: got %d, want 503", ready.status)
	}
	golden(t, "readyz_draining.json", ready.body)

	rejected := do(t, ts, "POST", "/v1/jobs", `{"scenario":"heat","sweep":"procs=8;iters=2"}`, nil)
	if rejected.status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", rejected.status)
	}
	golden(t, "draining.json", rejected.body)

	drained := do(t, ts, "GET", "/v1/jobs/"+queuedID, "", nil)
	if d := decodeJob(t, drained.body); d.State != StateCancelled {
		t.Fatalf("queued job after drain: %+v, want cancelled", d)
	}
	golden(t, "job_drained_cancelled.json", drained.body)

	once.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if d := decodeJob(t, do(t, ts, "GET", "/v1/jobs/job-000001", "", nil).body); d.State != StateDone {
		t.Errorf("running job after drain: %+v, want done", d)
	}
}

// TestUsageAndStats pins the management counters: per-client usage
// (including cache hits) and the daemon-wide stats document.
func TestUsageAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	alice := map[string]string{"X-Client": "alice"}
	bob := map[string]string{"X-Client": "bob"}

	id, _ := submit(t, ts, `{"scenario":"heat","sweep":"procs=1;iters=2"}`, alice)
	waitFinal(t, ts, id)
	id, _ = submit(t, ts, `{"scenario":"heat","sweep":"procs=1;iters=2"}`, alice) // full cache hit
	waitFinal(t, ts, id)
	id, _ = submit(t, ts, `{"scenario":"heat","sweep":"procs=2;iters=2"}`, bob)
	waitFinal(t, ts, id)

	golden(t, "usage.json", do(t, ts, "GET", "/v1/usage", "", nil).body)
	golden(t, "stats.json", do(t, ts, "GET", "/v1/stats", "", nil).body)
}

// TestScenariosEndpoint pins the scenario catalog document.
func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	r := do(t, ts, "GET", "/v1/scenarios", "", nil)
	if r.status != http.StatusOK {
		t.Fatalf("got %d", r.status)
	}
	golden(t, "scenarios.json", r.body)
}
