package platform

// The sparse-bookkeeping contract: a rank using the neighbor-keyed count
// maps (rankState.sparse) must produce exactly the virtual timeline,
// message counters, migrations and final data of the dense fast path.
// These white-box tests force sparse mode at small scale (by lowering
// sparseStateThreshold, so none of them may run in parallel) and diff
// every observable against the dense twin, across both exchange variants,
// both buffer modes, both kernels, and through live task migration.

import (
	"reflect"
	"testing"

	"ic2mpi/internal/mpi"
)

// withSparseState runs fn with every world it builds on the sparse
// bookkeeping, whatever its processor count.
func withSparseState(fn func()) {
	old := sparseStateThreshold
	sparseStateThreshold = 0
	defer func() { sparseStateThreshold = old }()
	fn()
}

func runPair(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	dense, err := Run(cfg)
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	var sparse *Result
	withSparseState(func() { sparse, err = Run(cfg) })
	if err != nil {
		t.Fatalf("sparse run: %v", err)
	}
	return dense, sparse
}

func assertResultsIdentical(t *testing.T, label string, dense, sparse *Result) {
	t.Helper()
	if dense.Elapsed != sparse.Elapsed {
		t.Errorf("%s: Elapsed dense %v != sparse %v", label, dense.Elapsed, sparse.Elapsed)
	}
	if !reflect.DeepEqual(dense.PhaseTimes, sparse.PhaseTimes) {
		t.Errorf("%s: PhaseTimes differ", label)
	}
	if !reflect.DeepEqual(dense.Stats, sparse.Stats) {
		t.Errorf("%s: Stats differ:\ndense  %+v\nsparse %+v", label, dense.Stats, sparse.Stats)
	}
	if !reflect.DeepEqual(dense.FinalData, sparse.FinalData) {
		t.Errorf("%s: FinalData differ", label)
	}
	if !reflect.DeepEqual(dense.FinalPartition, sparse.FinalPartition) {
		t.Errorf("%s: FinalPartition differ", label)
	}
	if dense.Migrations != sparse.Migrations {
		t.Errorf("%s: Migrations dense %d != sparse %d", label, dense.Migrations, sparse.Migrations)
	}
}

func TestSparseStateMatchesDense(t *testing.T) {
	g := hexGrid(t, 8, 8)
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent} {
		for _, overlap := range []bool{false, true} {
			for _, reuse := range []bool{false, true} {
				cfg := baseConfig(g, 6)
				cfg.Kernel = kernel
				cfg.Overlap = overlap
				cfg.ReuseBuffers = reuse
				label := "kernel=" + kernel.String()
				if overlap {
					label += " overlapped"
				}
				if reuse {
					label += " pooled"
				}
				dense, sparse := runPair(t, cfg)
				assertResultsIdentical(t, label, dense, sparse)
			}
		}
	}
}

// TestSparseStateMatchesDenseWithMigration drives real migrations so the
// sparse rebuildCounts/sendRow paths run mid-flight, not just at init.
func TestSparseStateMatchesDenseWithMigration(t *testing.T) {
	g := hexGrid(t, 8, 8)
	cfg := baseConfig(g, 4)
	cfg.Iterations = 16
	cfg.BalanceEvery = 4
	cfg.Balancer = skewedBalancer{}
	cfg.DisableMigrationGuard = true
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent} {
		c := cfg
		c.Kernel = kernel
		dense, sparse := runPair(t, c)
		if dense.Migrations == 0 {
			t.Fatalf("kernel=%v: expected migrations to occur", kernel)
		}
		assertResultsIdentical(t, "migration kernel="+kernel.String(), dense, sparse)
	}
}

// TestSparseThresholdEngages checks the automatic switch: above
// sparseStateThreshold ranks go sparse, and the results still match the
// dense run of the same configuration.
func TestSparseThresholdEngages(t *testing.T) {
	old := sparseStateThreshold
	defer func() { sparseStateThreshold = old }()

	g := hexGrid(t, 8, 8)
	cfg := baseConfig(g, 6)

	sparseStateThreshold = 1 << 20 // force dense
	dense, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparseStateThreshold = 3 // procs=6 exceeds it: auto-sparse
	sparse, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "threshold", dense, sparse)
}
