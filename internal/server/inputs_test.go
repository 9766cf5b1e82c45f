package server

import (
	"bytes"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// countedScenario wraps hex32-fine so that it counts its graph generations
// and InitData calls. It is handed to jobs directly rather than registered,
// so the scenario catalog and its goldens stay as they are.
func countedScenario(t *testing.T) (sc scenario.Scenario, graphs, inits *atomic.Int64) {
	t.Helper()
	base, err := scenario.Get("hex32-fine")
	if err != nil {
		t.Fatal(err)
	}
	graphs, inits = new(atomic.Int64), new(atomic.Int64)
	sc = base
	sc.Graph = func() (*graph.Graph, error) {
		graphs.Add(1)
		return base.Graph()
	}
	sc.InitData = func(id graph.NodeID) platform.NodeData {
		inits.Add(1)
		return base.InitData(id)
	}
	return sc, graphs, inits
}

// queueJob submits a JSON job of sc over sweep the way handleSubmit does,
// minus DecodeJobSpec, which accepts registered scenarios only.
func queueJob(t *testing.T, s *Server, sc scenario.Scenario, sweep string) *Job {
	t.Helper()
	ax, err := experiments.ParseAxes(sweep)
	if err != nil {
		t.Fatal(err)
	}
	return queueSpec(s, JobSpec{Scenario: sc.Name, Axes: ax, Format: "json"}, sc)
}

// queueSpec queues a job of spec the way handleSubmit does once the spec
// is decoded.
func queueSpec(s *Server, spec JobSpec, sc scenario.Scenario) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), "test", spec, sc, s.cfg.Now())
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queued <- j
	return j
}

// awaitResult waits until j's stream closes, which finalizing j does last,
// and returns j's result, failing the test unless j is done.
func awaitResult(t *testing.T, s *Server, j *Job) []byte {
	t.Helper()
	for {
		_, closed, wait := j.stream.snapshot(0)
		if closed {
			break
		}
		<-wait
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.State != StateDone {
		t.Fatalf("%s ended %s: %s", j.ID, j.State, j.Err)
	}
	return j.result
}

// sweepJSON is the JSON report of RunSweep over sweep, on the sweep's own
// fresh memo: the bytes a job of the same spec must serve.
func sweepJSON(t *testing.T, sc scenario.Scenario, sweep string) []byte {
	t.Helper()
	ax, err := experiments.ParseAxes(sweep)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, "json", rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsShareInputs: the jobs of one scenario share the server's memo of
// its inputs, whether they run one after another or at the same time, and
// sharing changes no byte. With the cache off every cell simulates, yet
// across four jobs with overlapping partition keys the graph is generated
// once, InitData is called once per node and one layout is built per
// partition key. A job that leaves more than maxSharedPartitions
// partitions behind drops the memo, so the next job generates the graph
// and builds its layouts again, with unchanged bytes.
func TestJobsShareInputs(t *testing.T) {
	sc, graphs, inits := countedScenario(t)
	g, err := sc.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sweeps := []string{
		"procs=1,2,4;iters=4;network=hypercube,mesh2d",
		"procs=2,4,8;iters=4;balancer=none,diffusion;network=hypercube",
		"procs=4,8;iters=6;partitioner=pagrid;network=mesh2d",
		"procs=2,8;iters=4;network=mesh2d,fattree",
	}
	const wide = "procs=1,2,3,4,5,6,7,8,9,10,11,12;iters=1;partitioner=metis,pagrid;network=hypercube,mesh2d,fattree"
	want := map[string][]byte{wide: sweepJSON(t, sc, wide)}
	keys := map[partKey]bool{} // the partition keys of sweeps
	for _, sweep := range sweeps {
		want[sweep] = sweepJSON(t, sc, sweep)
		maps.Copy(keys, partKeys(t, sc, sweep))
	}
	graphs.Store(0)
	inits.Store(0)

	// The last two jobs hold their first cell until both have started.
	var bothRunning sync.WaitGroup
	bothRunning.Add(2)
	setGate(t, func(j *Job, cell int) {
		if cell == 0 && (j.ID == "job-000003" || j.ID == "job-000004") {
			bothRunning.Done()
			bothRunning.Wait()
		}
	})
	s := New(Config{Workers: 2, CacheCells: -1, Now: fixedNow()})
	defer s.Close()
	check := func(j *Job, sweep string) {
		t.Helper()
		if got := awaitResult(t, s, j); !bytes.Equal(got, want[sweep]) {
			t.Errorf("%s (%s) differs from RunSweep on fresh inputs\n got %s\nwant %s", j.ID, sweep, got, want[sweep])
		}
	}
	for _, sweep := range sweeps[:2] {
		check(queueJob(t, s, sc, sweep), sweep)
	}
	c, d := queueJob(t, s, sc, sweeps[2]), queueJob(t, s, sc, sweeps[3])
	check(c, sweeps[2])
	check(d, sweeps[3])
	if graphs.Load() != 1 || inits.Load() != int64(g.NumVertices()) {
		t.Errorf("four jobs made %d graph generations and %d InitData calls, want 1 and %d",
			graphs.Load(), inits.Load(), g.NumVertices())
	}
	s.mu.Lock()
	in := s.inputs[sc.Name]
	s.mu.Unlock()
	if in == nil {
		t.Fatal("no shared memo after four jobs")
	}
	if n := in.Partitions(); n != len(keys) {
		t.Fatalf("the shared memo holds %d partitions, want the jobs' %d", n, len(keys))
	}
	if n := in.Layouts(); n != len(keys) {
		t.Fatalf("four jobs built %d layouts, want one per partition key, %d", n, len(keys))
	}

	check(queueJob(t, s, sc, wide), wide)
	if n := in.Partitions(); n <= maxSharedPartitions {
		t.Fatalf("the wide job left %d partitions, want more than %d", n, maxSharedPartitions)
	}
	graphs.Store(0)
	check(queueJob(t, s, sc, sweeps[0]), sweeps[0])
	if n := graphs.Load(); n != 1 {
		t.Errorf("the job after the wide one made %d graph generations, want 1 on a fresh memo", n)
	}
	s.mu.Lock()
	fresh := s.inputs[sc.Name]
	s.mu.Unlock()
	if want := len(partKeys(t, sc, sweeps[0])); fresh == in || fresh.Layouts() != want {
		t.Errorf("the job after the wide one built %d layouts, want %d on a fresh memo", fresh.Layouts(), want)
	}
}

// partKey is a partition key of scenario.Inputs.
type partKey struct {
	partitioner, network string
	procs                int
}

// partKeys returns the partition keys of sc's cells over sweep.
func partKeys(t *testing.T, sc scenario.Scenario, sweep string) map[partKey]bool {
	t.Helper()
	ax, err := experiments.ParseAxes(sweep)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[partKey]bool{}
	for _, p := range ax.Cells() {
		np, err := sc.Normalize(p)
		if err != nil {
			t.Fatal(err)
		}
		keys[partKey{np.Partitioner, np.Network, np.Procs}] = true
	}
	return keys
}

// TestBenchRoundBuildsOneLayoutPerPartition runs twenty rounds of the
// benchmark's daemon_cold mix, J1-J5 as bench/inputs.go spells them, on a
// fresh server with the cell cache off: 440 cells over 17 distinct
// partitions. Every cell simulates, and the server's memos build one
// layout per partition, not one per cell.
func TestBenchRoundBuildsOneLayoutPerPartition(t *testing.T) {
	bodies := []string{
		`{"scenario":"heat","sweep":"procs=1,2,4,8;iters=10"}`,
		`{"scenario":"hex64-fine","sweep":"procs=1,2,4,16;partitioner=metis,pagrid"}`,
		`{"scenario":"imbalance","sweep":"procs=4,8;balancer=none,diffusion,centralized"}`,
		`{"scenario":"life","sweep":"procs=8;network=hypercube,mesh2d,fattree","format":"csv"}`,
		`{"scenario":"heat","sweep":"procs=8;iters=20","trace":true}`,
	}
	s := New(Config{Workers: 2, CacheCells: -1, Now: fixedNow()})
	defer s.Close()
	cells := 0
	for range 20 {
		var jobs []*Job
		for _, body := range bodies {
			spec, sc, err := DecodeJobSpec([]byte(body), 1000)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, queueSpec(s, spec, sc))
		}
		for _, j := range jobs {
			awaitResult(t, s, j)
			cells += j.Cells
		}
	}
	s.mu.Lock()
	layouts := 0
	for _, in := range s.inputs {
		layouts += in.Layouts()
	}
	s.mu.Unlock()
	if cells != 440 || layouts != 17 {
		t.Errorf("%d cells built %d layouts, want 440 cells on 17", cells, layouts)
	}
}
