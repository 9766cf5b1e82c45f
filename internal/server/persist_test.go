package server

// Restart conformance: a daemon with a state directory survives being
// killed mid-job. The suite simulates the full SIGTERM-with-expired-
// drain-timeout shutdown, starts a second daemon on the same state
// directory, and pins that the interrupted job finishes under its
// original ID with its already-computed cells served from the persisted
// cache — byte-identical to an uninterrupted run.

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestartResumesPersistedState kills a daemon between cells 2 and 3
// of a three-cell sweep and restarts it on the same state directory: the
// job re-queues under its original ID, cells 0 and 1 come back as cache
// hits whose bytes equal a cache-miss run, only cell 2 recomputes, and
// the final result is byte-identical to the experiments engine run
// directly — ISSUE satellite (d).
func TestRestartResumesPersistedState(t *testing.T) {
	sequentialCells(t)
	state := t.TempDir()

	var killed atomic.Bool
	release := make(chan struct{})
	reached := make(chan struct{})
	var reachedOnce sync.Once
	setGate(t, func(_ *Job, cell int) {
		if cell == 2 && !killed.Load() {
			reachedOnce.Do(func() { close(reached) })
			<-release
		}
	})

	srvA, tsA := newTestServer(t, Config{Workers: 1, StateDir: state})
	// LIFO: unparks the abandoned worker before srvA's cleanup waits on it.
	t.Cleanup(func() { close(release) })
	if err := srvA.RestoreError(); err != nil {
		t.Fatal(err)
	}
	id, _ := submit(t, tsA, `{"scenario":"heat","sweep":"procs=1,2,4;iters=3","format":"text"}`, nil)

	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached cell 2")
	}

	// The SIGTERM path with an already-expired drain deadline: cells 0
	// and 1 are on disk, cell 2 never finishes, the job is abandoned.
	srvA.Drain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srvA.Wait(ctx); err == nil {
		t.Fatal("Wait with an expired context should report the abandoned job")
	}
	r := do(t, tsA, "GET", "/v1/jobs/"+id, "", nil)
	if d := decodeJob(t, r.body); d.State != StateFailed || !strings.HasPrefix(d.Error, drainTimeoutPrefix) {
		t.Fatalf("after abandoned drain: %+v, want failed with %q prefix", d, drainTimeoutPrefix)
	}
	if _, err := os.Stat(jobPath(state, id)); err != nil {
		t.Fatalf("job record should survive a shutdown: %v", err)
	}
	killed.Store(true)

	// Second daemon, same state directory. The job re-queues under its
	// original ID, the two persisted cells hit the cache, cell 2 reruns.
	srvB, tsB := newTestServer(t, Config{Workers: 1, StateDir: state})
	if err := srvB.RestoreError(); err != nil {
		t.Fatal(err)
	}
	if srvB.persist.CellsLoaded != 2 || srvB.persist.JobsRestored != 1 {
		t.Fatalf("restore stats %+v, want 2 cells loaded and 1 job restored", srvB.persist)
	}
	fin := waitFinal(t, tsB, id)
	golden(t, "restart_job_done.json", fin.body)
	if d := decodeJob(t, fin.body); d.ID != id || d.State != StateDone || d.CellsDone != 3 || d.CacheHits != 2 {
		t.Fatalf("restored job %+v, want %s done with 3 cells done and 2 cache hits", d, id)
	}

	res := do(t, tsB, "GET", "/v1/jobs/"+id+"/result", "", nil)
	if res.status != http.StatusOK {
		t.Fatalf("result: got %d\n%s", res.status, res.body)
	}
	if want := directSweepBytes(t, "heat", "procs=1,2,4;iters=3", "text"); !bytes.Equal(res.body, want) {
		t.Errorf("restored result drifted from a direct run\n--- got ---\n%s--- want ---\n%s", res.body, want)
	}
	golden(t, "restart_result.txt", res.body)

	// A clean finish removes the job record; cell records stay for
	// future cache hits.
	if _, err := os.Stat(jobPath(state, id)); !os.IsNotExist(err) {
		t.Fatalf("job record should be removed after a clean finish (err=%v)", err)
	}
	cells, err := sortedJSONFiles(filepath.Join(state, cellsDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d persisted cells, want 3", len(cells))
	}

	// Stats reports the persistence section; the run-specific directory
	// is scrubbed so the fixture stays byte-stable.
	st := do(t, tsB, "GET", "/v1/stats", "", nil)
	golden(t, "restart_stats.json", bytes.ReplaceAll(st.body, []byte(state), []byte("STATE_DIR")))
}

// TestRestartServesPersistedCellsToNewJobs pins the cache half of the
// contract in isolation: a daemon that computed a sweep, shut down
// cleanly (no interrupted jobs), and restarted serves the same sweep
// entirely from the persisted cache — hit bytes equal miss bytes.
func TestRestartServesPersistedCellsToNewJobs(t *testing.T) {
	sequentialCells(t)
	state := t.TempDir()
	spec := `{"scenario":"heat","sweep":"procs=1,2;iters=3","format":"csv"}`

	srvA, tsA := newTestServer(t, Config{Workers: 1, StateDir: state})
	if err := srvA.RestoreError(); err != nil {
		t.Fatal(err)
	}
	idA, _ := submit(t, tsA, spec, nil)
	waitFinal(t, tsA, idA)
	miss := do(t, tsA, "GET", "/v1/jobs/"+idA+"/result", "", nil)
	srvA.Close()

	srvB, tsB := newTestServer(t, Config{Workers: 1, StateDir: state})
	if err := srvB.RestoreError(); err != nil {
		t.Fatal(err)
	}
	if srvB.persist.CellsLoaded != 2 || srvB.persist.JobsRestored != 0 {
		t.Fatalf("restore stats %+v, want 2 cells loaded and 0 jobs restored", srvB.persist)
	}
	idB, _ := submit(t, tsB, spec, nil)
	fin := waitFinal(t, tsB, idB)
	if d := decodeJob(t, fin.body); d.CacheHits != 2 {
		t.Fatalf("restarted daemon ran the cells again: %+v, want 2 cache hits", d)
	}
	hit := do(t, tsB, "GET", "/v1/jobs/"+idB+"/result", "", nil)
	if !bytes.Equal(hit.body, miss.body) {
		t.Errorf("cache-hit bytes differ from cache-miss bytes\n--- hit ---\n%s--- miss ---\n%s", hit.body, miss.body)
	}
}

// TestRestoreRejectsCorruptState pins that a daemon refuses to trust a
// damaged state directory instead of silently dropping records.
func TestRestoreRejectsCorruptState(t *testing.T) {
	cases := map[string]func(dir string) error{
		"torn job record": func(dir string) error {
			return os.WriteFile(jobPath(dir, "job-000001"), []byte(`{"id":"job-0000`), 0o644)
		},
		"job record under the wrong name": func(dir string) error {
			rec := `{"id":"job-000002","client":"c","queued_at":"2026-01-02T03:04:05Z","spec":{"scenario":"heat","axes":{"procs":[1]}}}`
			return os.WriteFile(jobPath(dir, "job-000001"), []byte(rec), 0o644)
		},
		"job spec that no longer validates": func(dir string) error {
			rec := `{"id":"job-000001","client":"c","queued_at":"2026-01-02T03:04:05Z","spec":{"scenario":"no-such-scenario","axes":{"procs":[1]}}}`
			return os.WriteFile(jobPath(dir, "job-000001"), []byte(rec), 0o644)
		},
		"job record above the rank-iteration cap": func(dir string) error {
			rec := `{"id":"job-000001","client":"c","queued_at":"2026-01-02T03:04:05Z","spec":{"scenario":"heat","axes":{"procs":[65536],"iterations":[2000000000]}}}`
			return os.WriteFile(jobPath(dir, "job-000001"), []byte(rec), 0o644)
		},
		"cell record with a foreign key": func(dir string) error {
			return os.WriteFile(cellPath(dir, "some-key"), []byte(`{"key":"other-key","result":{}}`), 0o644)
		},
		"torn cell record": func(dir string) error {
			return os.WriteFile(cellPath(dir, "some-key"), []byte(`{"key":`), 0o644)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			state := t.TempDir()
			for _, sub := range []string{cellsDirName, jobsDirName} {
				if err := os.MkdirAll(filepath.Join(state, sub), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := corrupt(state); err != nil {
				t.Fatal(err)
			}
			srv := New(Config{Workers: 1, StateDir: state, Now: fixedNow()})
			defer srv.Close()
			if err := srv.RestoreError(); err == nil {
				t.Fatal("RestoreError should report the corrupt record")
			}
		})
	}
}
