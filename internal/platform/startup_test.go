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

// TestRankStartupAllocBytes bounds what a run allocates up to the end of its
// first iteration: 4096 nodes on 256 ranks, where anything a rank sizes by
// the whole graph costs P·N and dwarfs the rank-sized state. With the owner
// map shared and the hash index sized by the rank's own entries the run
// allocates about 4 MB; one int per node per rank — a private owner map, a
// bucket array — would add 8 MB. The ceiling is twice the first figure.
func TestRankStartupAllocBytes(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 64, 64), 256)
	cfg.Iterations = 1
	cfg.SkipFinalGather = true
	cfg.CheckInvariants = false
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("a 1-iteration run of 4096 nodes on 256 ranks allocated %d bytes, ceiling %d: something per-rank is sized by the whole graph again", got, ceiling)
	}
	// The run makes about 28 100 allocations: some 10 000 are the test's
	// InitData and node function boxing their values, and a rank's own
	// state is a few flat arrays. Per-node records, entries and chain links
	// made about 68 700; one more allocation per node adds 4 096.
	const objects = 30000
	if got := after.Mallocs - before.Mallocs; got > objects {
		t.Errorf("a 1-iteration run of 4096 nodes on 256 ranks made %d allocations, ceiling %d: something is allocated per node again", got, objects)
	}
}
