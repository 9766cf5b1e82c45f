package platform

import (
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
	// Each row is a worker count, named after the kernel name that
	// resolves to it (pevent's count is goroutine's).
	for _, row := range []struct {
		kernel  string
		workers int
	}{{"goroutine", 0}, {"event", 1}} {
		t.Run("kernel="+row.kernel, func(t *testing.T) {
			cfg := baseConfig(hexGrid(t, 8, 8), 4)
			cfg.Node = Node(imbalancedGrain)
			cfg.Iterations = 20
			cfg.Balancer = thresholdBalancer{}
			cfg.BalanceEvery = 5
			cfg.KernelWorkers = row.workers
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
// and the number of objects each run allocated: the first, cold, on empty
// pools of carriers and rank records, like a process's first run; the
// second, warm, on what the first returned to them.
func startupAllocs(t *testing.T, cfg Config) (bytes, objects [2]uint64) {
	t.Helper()
	cfg.Iterations = 1
	cfg.SkipFinalGather = true
	cfg.CheckInvariants = false
	// No GC cycle may sweep the pools between the two runs: the warm run
	// builds its ranks, megabytes of them, before it takes its carriers.
	// Two cycles before the first run empty the rank records' sync.Pool;
	// a carrier sweep they leave pending can only mark carriers, not stop
	// them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
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
	// The cold run makes about 20 000 allocations and the warm one about
	// 16 400, nearly all of them the test's InitData and node function
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
// about 90 000 on empty pools, where the engine makes a carrier per rank,
// and about 30 760 on pooled carriers and rank records, nearly all of them
// InitData's and the node function's. While every run made each rank's
// Comm the warm run made about 43 050.
func TestRankStartupAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("4096 ranks under the race detector")
	}
	cfg := baseConfig(hexGrid(t, 64, 64), 4096)
	for v := range cfg.InitialPartition {
		cfg.InitialPartition[v] = v
	}
	_, objects := startupAllocs(t, cfg)
	ceiling := [2]uint64{100000, 34000}
	for i, name := range runNames {
		if objects[i] > ceiling[i] {
			t.Errorf("a %s 1-iteration run of 4096 one-node ranks made %d allocations, ceiling %d: a rank allocates at start-up again", name, objects[i], ceiling[i])
		}
		t.Logf("4096 ranks, %s: %d allocations", name, objects[i])
	}
}

// TestIdleRankStartupBytes runs the sparse shape, 64 nodes on 4096 ranks,
// where all but 64 ranks hold no node, so that what such a rank allocates
// is most of what a run allocates. When every rank got the whole record, a
// hash-table bucket, a spare link and a slice header for its node list, a
// warm run allocated about 3 054 000 bytes, 745 per rank. Now a rank that
// holds no node gets only the per-rank record (rankState, no nodeState),
// and a warm run allocated about 2 052 000, 501 per rank, while it made
// each rank's record, Comm and engine state. Now those are recycled, and a
// warm run allocates about 674 000, 164 per rank: the Result's, the
// builder's and the engine's per-rank vectors. The ceiling is 1.2 times that. The cold run
// adds the carriers and the records.
//
// It also logs GC cycles per warm 10-iteration run, without gating them:
// the count depends on GOGC and the Go release. Every cycle scans each
// pooled carrier's stack, so a run's GC time follows it; on this shape only
// the 64 busy ranks' carriers have one, as a rank that holds no node runs
// without a coroutine, and the warm run's one closure declaring those ranks
// is 32 of its bytes.
func TestIdleRankStartupBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("4096 ranks under the race detector")
	}
	const procs = 4096
	bytes, objects := startupAllocs(t, baseConfig(hexGrid(t, 8, 8), procs))
	for i, name := range runNames {
		t.Logf("64 nodes on %d ranks, %s: %d bytes, %d per rank, %d allocations", procs, name, bytes[i], bytes[i]/procs, objects[i])
	}
	const ceiling = 809_000
	if bytes[1] > ceiling {
		t.Errorf("a warm 1-iteration run of 64 nodes on %d ranks allocated %d bytes, ceiling %d: ranks that hold no node allocate node state again", procs, bytes[1], ceiling)
	}

	const runs = 100
	cfg := baseConfig(hexGrid(t, 8, 8), procs)
	cfg.Iterations, cfg.CheckInvariants = 10, false
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("64 nodes on %d ranks, %d warm 10-iteration runs: %d bytes and %.2f GC cycles per run", procs, runs,
		(after.TotalAlloc-before.TotalAlloc)/runs, float64(after.NumGC-before.NumGC)/runs)
}
