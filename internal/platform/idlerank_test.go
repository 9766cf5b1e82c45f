package platform_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ic2mpi/internal/mpi"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// idleRankPins are the engine's host-side counts and the result digest
// (releaseDigest) of hex64-fine, 64 nodes, over 10 iterations on more
// ranks than nodes, recorded before a rank that holds no node ran without a
// coroutine of its own. 4096 procs is the machine_sparse benchmark cell; 96
// is the row the race detector runs too. Keyed "procs/workers".
var idleRankPins = map[string]struct {
	counters mpi.KernelCounters
	digest   string
}{
	"96/1":   {mpi.KernelCounters{Windows: 1, Activations: 685, Parks: 589}, "7c292423c02b4f882d0f107428dfb5e43b4893a3ca2bda0e26544501340fb414"},
	"96/2":   {mpi.KernelCounters{Windows: 11, Activations: 922, Parks: 826, StagedMsgs: 760}, "7c292423c02b4f882d0f107428dfb5e43b4893a3ca2bda0e26544501340fb414"},
	"4096/1": {mpi.KernelCounters{Windows: 1, Activations: 4686, Parks: 590}, "5b8b501dba9360d8dc031b52e55e82ffae90ce153820b5ac5279a353f2777bea"},
	"4096/2": {mpi.KernelCounters{Windows: 1, Activations: 4686, Parks: 590}, "5b8b501dba9360d8dc031b52e55e82ffae90ce153820b5ac5279a353f2777bea"},
}

// TestIdleRankCountersPinned holds the engine's windows, activations,
// parks and staged messages, and every rank's result, on cells where most
// ranks hold no node, at one worker and at two. A rank that runs to its
// return without parking still counts one activation.
func TestIdleRankCountersPinned(t *testing.T) {
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{96, 4096} {
		for _, workers := range []int{1, 2} {
			key := fmt.Sprintf("%d/%d", procs, workers)
			t.Run(key, func(t *testing.T) {
				if procs == 4096 && platform.RaceEnabled {
					t.Skip("4096 ranks under the race detector")
				}
				cfg, err := sc.Config(scenario.Params{Procs: procs, Iterations: 10})
				if err != nil {
					t.Fatal(err)
				}
				cfg.KernelWorkers = workers
				var got mpi.KernelCounters
				res, err := platform.RunProbed(*cfg, &got)
				if err != nil {
					t.Fatal(err)
				}
				want := idleRankPins[key]
				if got != want.counters {
					t.Errorf("counters %+v, want %+v", got, want.counters)
				}
				if d := releaseDigest(res); d != want.digest {
					t.Errorf("digest %s, want %s", d, want.digest)
				}
			})
		}
	}
}

// TestIdleRanksStartNoCoroutine: after three runs of the machine_sparse
// cell at two workers, the live goroutines are at most those before the
// runs plus one pooled carrier per rank that holds a node plus the
// workers. A rank that holds no node runs on its worker's goroutine, so its
// carrier never starts a coroutine.
func TestIdleRanksStartNoCoroutine(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("4096 ranks under the race detector")
	}
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	cfg, err := sc.Config(scenario.Params{Procs: 4096, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.KernelWorkers = workers
	busy := len(slices.Compact(slices.Sorted(slices.Values(cfg.InitialPartition))))
	mpi.DrainCarriers()
	before := runtime.NumGoroutine()
	for range 3 {
		if _, err := platform.Run(*cfg); err != nil {
			t.Fatal(err)
		}
	}
	n := runtime.NumGoroutine()
	if n > before+busy+workers {
		t.Errorf("%d goroutines after the runs, %d before: more than the %d busy ranks' carriers and %d workers", n, before, busy, workers)
	}
	t.Logf("%d goroutines before the runs, %d after", before, n)
}
