package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ic2mpi/internal/trace"
)

// TestRunsShareOneLayout runs three runs of one partition at once, all
// given the same Layout: one that migrates under the centralized 25 %
// rule (thresholdBalancer) with its invariants checked every iteration,
// one that only traces, and one resumed from a cut between two of the
// first run's migrations. Each must report what it reports on a private
// layout of its own — result, stats and trace JSONL — and afterwards the
// shared layout must equal a freshly built one: a rank copies its part
// before its first structural write, and a resumed run builds its own.
// CI runs it with GOMAXPROCS=4 -race -count=5.
func TestRunsShareOneLayout(t *testing.T) {
	g := hexGrid(t, 8, 8)
	plain := baseConfig(g, 4)
	plain.Iterations = 12
	migrating := plain
	migrating.Node = Node(imbalancedGrain)
	migrating.Balancer = thresholdBalancer{}
	migrating.BalanceEvery = 2

	var snaps []*RunSnapshot
	cut := migrating
	cut.Trace = &trace.Recorder{}
	cut.CheckpointEvery = 1
	cut.CheckpointSink = func(s *RunSnapshot) error {
		snaps = append(snaps, s)
		return nil
	}
	full, err := Run(cut)
	if err != nil {
		t.Fatal(err)
	}
	// The latest cut whose owner map differs from both ends of the run.
	resumed := migrating
	for _, s := range snaps {
		if !slices.Equal(s.Owner, plain.InitialPartition) && !slices.Equal(s.Owner, full.FinalPartition) {
			resumed.ResumeFrom = s
		}
	}
	if full.Migrations < 2 || resumed.ResumeFrom == nil {
		t.Fatalf("%d migrations and no cut between two of them: the runs do not exercise a layout copy", full.Migrations)
	}

	cases := []struct {
		name string
		cfg  Config
	}{{"migrating", migrating}, {"traced", plain}, {"resumed", resumed}}
	run := func(cfg Config, lay *Layout) (*Result, []byte, error) {
		cfg.Layout = lay
		cfg.Trace = &trace.Recorder{}
		return runTraced(cfg)
	}
	want := make([]struct {
		res   *Result
		trace []byte
	}, len(cases))
	for i, tc := range cases {
		if want[i].res, want[i].trace, err = run(tc.cfg, nil); err != nil {
			t.Fatalf("%s on a private layout: %v", tc.name, err)
		}
	}

	lay, err := NewLayout(g, plain.InitialPartition, plain.Procs)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(cases))
	for range rounds {
		for i, tc := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, tr, err := run(tc.cfg, lay)
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s on the shared layout: %w", tc.name, err)
				case !reflect.DeepEqual(res, want[i].res):
					errs <- fmt.Errorf("%s: the result on the shared layout differs from the private layout's", tc.name)
				case !bytes.Equal(tr, want[i].trace):
					errs <- fmt.Errorf("%s: the trace on the shared layout differs from the private layout's", tc.name)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	fresh, err := NewLayout(g, plain.InitialPartition, plain.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lay, fresh) {
		t.Error("the shared layout differs from a freshly built one after its runs")
	}
}

// TestLayoutMustMatchTheRun refuses a layout of another partition, even
// an equal copy of it: a run trusts its layout, so it must be the one
// built from the run's own graph and partition.
func TestLayoutMustMatchTheRun(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 4), 2)
	lay, err := NewLayout(cfg.Graph, slices.Clone(cfg.InitialPartition), cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Layout = lay
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted the layout of another partition slice")
	}
}
