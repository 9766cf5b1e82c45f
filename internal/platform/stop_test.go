package platform

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// mpiGoroutines counts the goroutines running engine code: its worker
// goroutines and its carriers, running, parked or pooled.
func mpiGoroutines() int {
	buf := make([]byte, 1<<20)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("ic2mpi/internal/mpi.")) {
			n++
		}
	}
	return n
}

// TestStopEndsRunAtIterationBoundary: a node function closes Config.Stop
// while computing node 0 at iteration 3. Under every kernel name at one
// and at three workers the run fails with mpi.ErrStopped, node 0's rank
// starts no later iteration (ranks far from it may have run ahead, so
// theirs are not pinned), and once the pool is drained no engine
// goroutine is left.
func TestStopEndsRunAtIterationBoundary(t *testing.T) {
	g := hexGrid(t, 6, 6)
	for _, name := range mpi.KernelNames() {
		kernel, err := mpi.ParseKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s-w%d", name, workers), func(t *testing.T) {
				mpi.DrainCarriers()
				before := mpiGoroutines()
				stop := make(chan struct{})
				lastIter := 0 // the last iteration node 0 was computed in; only its rank writes it
				cfg := baseConfig(g, 6)
				cfg.Iterations = 10
				cfg.Kernel, cfg.KernelWorkers, cfg.Stop = kernel, workers, stop
				node := cfg.Node
				cfg.Node = func(id graph.NodeID, iter, sub int, self NodeData, nbrs []Neighbor) (NodeData, float64) {
					if id == 0 {
						lastIter = iter
						if iter == 3 {
							close(stop) // node 0 is computed once an iteration
						}
					}
					return node(id, iter, sub, self, nbrs)
				}
				res, err := Run(cfg)
				if !errors.Is(err, mpi.ErrStopped) || res != nil {
					t.Fatalf("Run returned a result: %t, error %v; want no result and an error that is mpi.ErrStopped", res != nil, err)
				}
				if lastIter != 3 {
					t.Errorf("node 0 was last computed at iteration %d, want 3: its rank went on past the stop", lastIter)
				}
				mpi.DrainCarriers()
				deadline := time.Now().Add(5 * time.Second)
				for after := mpiGoroutines(); after > before; after = mpiGoroutines() {
					if time.Now().After(deadline) {
						t.Fatalf("%d engine goroutines before the run, %d after draining the pool", before, after)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
