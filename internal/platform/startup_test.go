package platform

import (
	"fmt"
	"runtime"
	"runtime/debug"
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

// startupAllocs runs cfg for one iteration twice and returns the bytes
// and the number of objects each run allocated: the first, cold, on an
// empty carrier pool, like a process's first run; the second, warm, on the
// carriers the first returned to the pool.
func startupAllocs(t *testing.T, cfg Config) (bytes, objects [2]uint64) {
	t.Helper()
	cfg.Iterations = 1
	cfg.SkipFinalGather = true
	cfg.CheckInvariants = false
	// No GC cycle may sweep the pool between the two runs: the warm run
	// builds its ranks, megabytes of them, before it takes its carriers.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mpi.DrainCarriers()
	var before, after runtime.MemStats
	for i := range 2 {
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes[i], objects[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	return bytes, objects
}

// runNames names startupAllocs' two runs.
var runNames = [2]string{"cold", "warm"}

// TestRankStartupAllocBytes bounds what a run allocates up to the end of its
// first iteration: 4096 nodes on 256 ranks, where anything a rank sizes by
// the whole graph costs P·N and dwarfs the rank-sized state. With the owner
// map shared and the hash index sized by the rank's own entries the run
// allocates about 4 MB; one int per node per rank — a private owner map, a
// bucket array — would add 8 MB. The ceiling is twice the first figure.
func TestRankStartupAllocBytes(t *testing.T) {
	bytes, objects := startupAllocs(t, baseConfig(hexGrid(t, 64, 64), 256))
	// The cold run makes about 20 400 allocations and the warm one about
	// 17 100, nearly all of them the test's InitData and node function
	// boxing their values: the ranks are built in machine-wide arrays
	// before they launch, and the difference is the carriers the cold run
	// makes. Built by each rank for itself the ranks made about 28 100, and
	// per-node records, entries and chain links made about 68 700. One more
	// allocation per node adds 4 096.
	const ceiling = 8 << 20
	ceilingObjects := [2]uint64{21400, 18100}
	for i, name := range runNames {
		if bytes[i] > ceiling {
			t.Errorf("a %s 1-iteration run of 4096 nodes on 256 ranks allocated %d bytes, ceiling %d: something per-rank is sized by the whole graph again", name, bytes[i], ceiling)
		}
		if objects[i] > ceilingObjects[i] {
			t.Errorf("a %s 1-iteration run of 4096 nodes on 256 ranks made %d allocations, ceiling %d: something is allocated per node again", name, objects[i], ceilingObjects[i])
		}
		t.Logf("256 ranks, %s: %d bytes, %d allocations", name, bytes[i], objects[i])
	}
}

// TestRankStartupAllocsPerRank runs 4096 nodes on 4096 ranks, one node
// each, so that one allocation per rank at start-up adds 4 096. Each rank
// building its own state made about 226 000; the machine-wide build makes
// about 96 000 on an empty carrier pool, where the engine makes a carrier
// per rank, and about 43 050 on pooled carriers, nearly all of them
// InitData's and the node function's.
func TestRankStartupAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("4096 ranks under the race detector")
	}
	cfg := baseConfig(hexGrid(t, 64, 64), 4096)
	for v := range cfg.InitialPartition {
		cfg.InitialPartition[v] = v
	}
	_, objects := startupAllocs(t, cfg)
	ceiling := [2]uint64{100000, 47000}
	for i, name := range runNames {
		if objects[i] > ceiling[i] {
			t.Errorf("a %s 1-iteration run of 4096 one-node ranks made %d allocations, ceiling %d: a rank allocates at start-up again", name, objects[i], ceiling[i])
		}
		t.Logf("4096 ranks, %s: %d allocations", name, objects[i])
	}
}
