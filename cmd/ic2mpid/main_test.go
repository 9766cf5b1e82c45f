package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// TestCountFlagsAreUsageErrors: a negative count is refused at parse time
// with exit 2 and the count rule, before anything listens. A daemon that
// accepted the value would find SIGTERM waiting and exit 0.
func TestCountFlagsAreUsageErrors(t *testing.T) {
	old := experiments.Parallelism
	t.Cleanup(func() { experiments.Parallelism = old })
	for _, args := range [][]string{
		{"-workers", "-3"},
		{"-queue", "-5"},
		{"-max-cells", "-1"},
		{"-parallel", "-2"},
	} {
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM
		var stderr strings.Builder
		code := run(append(args, "-addr", "127.0.0.1:0"), &stderr, sig)
		if code != 2 || !strings.Contains(stderr.String(), args[0]+": must be >= 0") {
			t.Errorf("%v: exited %d, stderr %q; want 2 and the count rule", args, code, stderr.String())
		}
	}
}

// startDaemon runs the daemon on a free loopback port with the extra args
// and returns its base URL once it answers /healthz. stop sends it SIGTERM
// on the channel run reads and returns the exit code and the log; a
// daemon the test did not stop is stopped at cleanup.
func startDaemon(t *testing.T, args ...string) (url string, stop func() (int, string)) {
	t.Helper()
	old := experiments.Parallelism
	t.Cleanup(func() { experiments.Parallelism = old })
	addrFile := filepath.Join(t.TempDir(), "addr")
	sig := make(chan os.Signal, 1)
	exited := make(chan struct{})
	var code int
	var stderr bytes.Buffer // read only after exited closes
	go func() {
		defer close(exited)
		code = run(append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...), &stderr, sig)
	}()
	var once sync.Once
	stop = func() (int, string) {
		once.Do(func() { sig <- syscall.SIGTERM })
		<-exited
		return code, stderr.String()
	}
	t.Cleanup(func() { stop() })
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			url = "http://" + string(addr)
			if res, err := http.Get(url + "/healthz"); err == nil {
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					return url, stop
				}
			}
		}
		select {
		case <-exited:
			t.Fatalf("daemon exited with %d before it answered:\n%s", code, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// request performs one HTTP request and returns the response with its
// body read.
func request(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// TestServeDrainRestart is the daemon binary end to end. A sweep's result
// is the bytes cmd/experiments writes for the same spec; an oversized
// cell is refused and the daemon answers on; SIGTERM drains it to exit 0
// with the listener closed. A second daemon on the same -state directory
// serves the same sweep from the cells the first persisted, bytes
// unchanged.
func TestServeDrainRestart(t *testing.T) {
	const spec = `{"scenario":"hex32-fine","sweep":"procs=1,2,4,8;iters=5","format":"json"}`
	sc, err := scenario.Get("hex32-fine")
	if err != nil {
		t.Fatal(err)
	}
	ax, err := experiments.ParseAxes("procs=1,2,4,8;iters=5")
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

	state := t.TempDir()
	for _, cacheHits := range []string{"0", "4"} {
		url, stop := startDaemon(t, "-state", state)
		res, body := request(t, "POST", url+"/v1/jobs", spec)
		var job struct{ ID string }
		if err := json.Unmarshal(body, &job); res.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("submit: %d %v\n%s", res.StatusCode, err, body)
		}
		request(t, "GET", url+"/v1/jobs/"+job.ID+"/stream", "") // ends with the job
		res, body = request(t, "GET", url+"/v1/jobs/"+job.ID+"/result", "")
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("daemon result differs from cmd/experiments' bytes\n--- daemon ---\n%s--- cmd/experiments ---\n%s", body, want.Bytes())
		}
		if got := res.Header.Get("X-Cache-Hits"); got != cacheHits {
			t.Errorf("X-Cache-Hits = %q, want %s", got, cacheHits)
		}

		if res, body := request(t, "POST", url+"/v1/jobs", `{"scenario":"heat","sweep":"procs=2000000"}`); res.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized cell: got %d, want 400\n%s", res.StatusCode, body)
		}
		if res, _ := request(t, "GET", url+"/healthz", ""); res.StatusCode != http.StatusOK {
			t.Errorf("healthz after a refused submit: got %d", res.StatusCode)
		}

		code, log := stop()
		if code != 0 || !strings.Contains(log, "received terminated; draining") || !strings.HasSuffix(log, "drained; exiting\n") {
			t.Errorf("SIGTERM: exited %d, want 0 after a drain\n%s", code, log)
		}
		if res, err := http.Get(url + "/healthz"); err == nil {
			res.Body.Close()
			t.Errorf("the daemon still answers after exiting")
		}
	}
}

// The graphpanics scenario, for TestPanickingCellFailsItsJob: its graph
// generator panics, as a buggy plug-in would.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "graphpanics",
		Description: "a graph generator that panics (test only)",
		Graph:       func() (*graph.Graph, error) { panic("graph generator failed") },
		InitData:    func(graph.NodeID) platform.NodeData { return platform.IntData(0) },
		Node: func(*graph.Graph) platform.NodeFunc {
			return platform.Node(func(_ graph.NodeID, _, _ int, self platform.IntData, _ []platform.Neighbor[platform.IntData]) (platform.IntData, float64) {
				return self, 0
			})
		},
		Iterations: 1,
	})
}

// TestPanickingCellFailsItsJob: a cell that panics fails its job with the
// cell's error, and the daemon runs the next job to completion.
func TestPanickingCellFailsItsJob(t *testing.T) {
	url, _ := startDaemon(t, "-workers", "1")
	for _, tc := range []struct{ spec, state, err string }{
		{`{"scenario":"graphpanics","sweep":"procs=2"}`, "failed", "experiments: cell 0 panicked: graph generator failed"},
		{`{"scenario":"hex32-fine","sweep":"procs=2;iters=3"}`, "done", ""},
	} {
		res, body := request(t, "POST", url+"/v1/jobs", tc.spec)
		var job struct{ ID, State, Error string }
		if err := json.Unmarshal(body, &job); res.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("submit %s: %d %v\n%s", tc.spec, res.StatusCode, err, body)
		}
		request(t, "GET", url+"/v1/jobs/"+job.ID+"/stream", "") // ends with the job
		_, body = request(t, "GET", url+"/v1/jobs/"+job.ID, "")
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.State != tc.state || job.Error != tc.err {
			t.Errorf("%s: state %q, error %q; want %q, %q", tc.spec, job.State, job.Error, tc.state, tc.err)
		}
	}
}
