package workload

import (
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
)

func TestUniformGrain(t *testing.T) {
	g := UniformGrain(0.5)
	if g(0, 1) != 0.5 || g(99, 30) != 0.5 {
		t.Fatal("uniform grain not uniform")
	}
}

func TestFig23ScheduleWindows(t *testing.T) {
	const n = 100
	sched := Fig23Schedule(n, CoarseGrain, FineGrain)
	cases := []struct {
		iter     int
		node     int
		isCoarse bool
	}{
		// Window 1 (iters 1-10): first 50% coarse.
		{1, 0, true}, {5, 49, true}, {10, 50, false}, {10, 99, false},
		// Window 2 (iters 11-20): 25%-75% coarse.
		{11, 24, false}, {15, 25, true}, {20, 74, true}, {20, 75, false},
		// Window 3 (iters 21-30): 50%-100% coarse.
		{21, 49, false}, {25, 50, true}, {30, 99, true},
		// Beyond iter 30: everything fine.
		{31, 0, false}, {35, 99, false},
	}
	for _, tc := range cases {
		got := sched(graph.NodeID(tc.node), tc.iter)
		want := FineGrain
		if tc.isCoarse {
			want = CoarseGrain
		}
		if got != want {
			t.Errorf("iter %d node %d: grain %v, want %v", tc.iter, tc.node, got, want)
		}
	}
}

func TestFig23ScheduleCoarseShare(t *testing.T) {
	// Each active window puts exactly half the nodes at coarse grain.
	const n = 64
	sched := Fig23Schedule(n, CoarseGrain, FineGrain)
	for _, iter := range []int{5, 15, 25} {
		coarse := 0
		for v := 0; v < n; v++ {
			if sched(graph.NodeID(v), iter) == CoarseGrain {
				coarse++
			}
		}
		if coarse != n/2 {
			t.Errorf("iter %d: %d coarse nodes, want %d", iter, coarse, n/2)
		}
	}
}

func TestAveragingComputesMean(t *testing.T) {
	fn := average(UniformGrain(1e-3))
	self := platform.IntData(10)
	nbrs := []platform.Neighbor[platform.IntData]{{ID: 1, Data: 20}, {ID: 2, Data: 30}}
	out, cost := fn(0, 1, 0, self, nbrs)
	if out != platform.IntData(20) {
		t.Fatalf("average = %v, want 20", out)
	}
	if cost != 1e-3 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestAveragingNoNeighbors(t *testing.T) {
	fn := average(UniformGrain(0))
	out, _ := fn(0, 1, 0, platform.IntData(7), nil)
	if out != platform.IntData(7) {
		t.Fatalf("isolated node changed: %v", out)
	}
}

func TestInitID(t *testing.T) {
	if InitID(0) != platform.IntData(1) || InitID(41) != platform.IntData(42) {
		t.Fatal("InitID must be the 1-based global ID")
	}
}

func TestGrainConstants(t *testing.T) {
	if CoarseGrain != 10*FineGrain {
		t.Fatalf("paper grain sizes: coarse %v must be 10x fine %v", CoarseGrain, FineGrain)
	}
}
