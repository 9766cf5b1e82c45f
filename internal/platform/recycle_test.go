package platform

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/trace"
)

// recycledRun is one of the runs TestRecycledRanksConcurrentRuns
// interleaves, with what it returns when it runs alone.
type recycledRun struct {
	name  string
	cfg   func() Config // a fresh copy, with a recorder of its own
	res   *Result
	trace []byte
}

// runTraced runs cfg and returns its result and its trace's JSONL.
func runTraced(cfg Config) (*Result, []byte, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, cfg.Trace); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// TestRecycledRanksConcurrentRuns: runs of 512, 6 and 4 ranks take their
// per-rank records from and return them to the process's pools at once,
// so a record recycled from a larger run serves a smaller one and the
// other way round, and each run's result, stats, phase times, final data
// and trace equal the same run's alone (CI runs it under -race). The
// three are the sparse shape, a balanced run that migrates and checks
// its invariants, and a run resumed from a checkpoint cut.
func TestRecycledRanksConcurrentRuns(t *testing.T) {
	sparse := baseConfig(hexGrid(t, 8, 8), 512)
	sparse.Iterations = 3
	balanced := baseConfig(hexGrid(t, 4, 6), 6)
	balanced.Node = func(id graph.NodeID, iter, sub int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
		out, _ := mixing(0)(id, iter, sub, self, nbrs)
		if id >= 8 && id < 12 { // rank 2's block: busier than every neighbour
			return out, 3e-3
		}
		return out, 0.3e-3
	}
	balanced.Balancer = thresholdBalancer{}
	balanced.BalanceEvery = 2
	_, _, snaps := runWithSnapshots(t, checkpointConfig(t, 4))
	resumed := checkpointConfig(t, 4)
	resumed.ResumeFrom = snaps[4]
	traced := func(cfg Config) func() Config {
		return func() Config {
			c := cfg
			c.Trace = &trace.Recorder{}
			return c
		}
	}
	cases := []*recycledRun{
		{name: "64 nodes on 512 ranks", cfg: traced(sparse)},
		{name: "balanced 4x6 grid on 6 ranks", cfg: traced(balanced)},
		{name: "resumed at iteration 4", cfg: traced(resumed)},
	}
	for _, rc := range cases {
		var err error
		if rc.res, rc.trace, err = runTraced(rc.cfg()); err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
	}
	if cases[1].res.Migrations == 0 {
		t.Fatal("the balanced run migrated nothing")
	}

	const runners, runs = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, runners*runs)
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				rc := cases[(g+i)%len(cases)]
				res, tr, err := runTraced(rc.cfg())
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s: %w", rc.name, err)
				case !reflect.DeepEqual(res, rc.res):
					errs <- errors.New(rc.name + ": a concurrent run's result diverged from the same run alone")
				case !bytes.Equal(tr, rc.trace):
					errs <- errors.New(rc.name + ": a concurrent run's trace diverged from the same run alone")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
