package platform

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ic2mpi/internal/mpi"
)

// TestRunDoesNotMutateInitialPartition holds the copy-on-first-write rule of
// the shared owner map: every rank reads the caller's InitialPartition (or,
// resumed, the snapshot's Owner) in place, and a run that migrates nodes
// must leave both as it found them. Dropping rankState.ownOwner fails it.
func TestRunDoesNotMutateInitialPartition(t *testing.T) {
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent, mpi.KernelParallelEvent} {
		t.Run(fmt.Sprintf("kernel=%v", kernel), func(t *testing.T) {
			cfg := baseConfig(hexGrid(t, 8, 8), 4)
			cfg.Node = imbalancedGrain
			cfg.Iterations = 20
			cfg.Balancer = thresholdBalancer{}
			cfg.BalanceEvery = 5
			cfg.Kernel = kernel
			initial := slices.Clone(cfg.InitialPartition)

			// One snapshot, at iteration 10: migrations on both sides of it.
			var snap *RunSnapshot
			cfg.CheckpointEvery = 10
			cfg.CheckpointSink = func(s *RunSnapshot) error {
				snap = s
				return nil
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cfg.InitialPartition, initial) {
				t.Errorf("Run wrote to Config.InitialPartition:\n got %v\nwant %v", cfg.InitialPartition, initial)
			}
			if slices.Equal(res.FinalPartition, initial) {
				t.Fatal("no node changed owner; the run does not exercise the owner map's first write")
			}

			cut := slices.Clone(snap.Owner)
			if slices.Equal(cut, initial) || slices.Equal(cut, res.FinalPartition) {
				t.Fatal("snapshot is not between two migrations; the resumed run would not write the owner map")
			}
			cfg.CheckpointEvery, cfg.CheckpointSink = 0, nil
			cfg.ResumeFrom = snap
			resumed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(snap.Owner, cut) {
				t.Errorf("resumed Run wrote to RunSnapshot.Owner:\n got %v\nwant %v", snap.Owner, cut)
			}
			if !slices.Equal(resumed.FinalPartition, res.FinalPartition) {
				t.Errorf("resumed run ends on partition %v, uninterrupted run on %v", resumed.FinalPartition, res.FinalPartition)
			}
		})
	}
}

// startupAllocs runs cfg for one iteration and returns the bytes and the
// number of objects it allocated.
func startupAllocs(t *testing.T, cfg Config) (bytes, objects uint64) {
	t.Helper()
	cfg.Iterations = 1
	cfg.SkipFinalGather = true
	cfg.CheckInvariants = false
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestRankStartupAllocBytes bounds what a run allocates up to the end of its
// first iteration: 4096 nodes on 256 ranks, where anything a rank sizes by
// the whole graph costs P·N and dwarfs the rank-sized state. With the owner
// map shared and the hash index sized by the rank's own entries the run
// allocates about 4 MB; one int per node per rank — a private owner map, a
// bucket array — would add 8 MB. The ceiling is twice the first figure.
func TestRankStartupAllocBytes(t *testing.T) {
	bytes, objects := startupAllocs(t, baseConfig(hexGrid(t, 64, 64), 256))
	const ceiling = 8 << 20
	if bytes > ceiling {
		t.Errorf("a 1-iteration run of 4096 nodes on 256 ranks allocated %d bytes, ceiling %d: something per-rank is sized by the whole graph again", bytes, ceiling)
	}
	// The run makes about 20 400 allocations, nearly all of them the test's
	// InitData and node function boxing their values: the ranks are built
	// in machine-wide arrays before they launch. Built by each rank for
	// itself they made about 28 100, and per-node records, entries and
	// chain links made about 68 700; one more allocation per node adds
	// 4 096.
	const ceilingObjects = 21400
	if objects > ceilingObjects {
		t.Errorf("a 1-iteration run of 4096 nodes on 256 ranks made %d allocations, ceiling %d: something is allocated per node again", objects, ceilingObjects)
	}
	t.Logf("256 ranks: %d bytes, %d allocations", bytes, objects)
}

// TestRankStartupAllocsPerRank runs 4096 nodes on 4096 ranks, one node
// each, so that one allocation per rank at start-up adds 4 096. Each rank
// building its own state made about 226 000; the machine-wide build makes about
// 96 000, nearly all of them InitData's, the node function's and the
// engine's.
func TestRankStartupAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("4096 ranks under the race detector")
	}
	cfg := baseConfig(hexGrid(t, 64, 64), 4096)
	for v := range cfg.InitialPartition {
		cfg.InitialPartition[v] = v
	}
	_, objects := startupAllocs(t, cfg)
	const ceiling = 100000
	if objects > ceiling {
		t.Errorf("a 1-iteration run of 4096 one-node ranks made %d allocations, ceiling %d: a rank allocates at start-up again", objects, ceiling)
	}
	t.Logf("4096 ranks: %d allocations", objects)
}
