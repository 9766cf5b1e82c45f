package mpi

// Unit tests of the event-driven kernel's multi-worker seams: the
// cross-worker visibility contract of Probe after a barrier, per-source
// FIFO across a staging lane, and the worker-count resolution rules. The
// failure paths are in event_test.go, one table over both kernel names.

import (
	"fmt"
	"testing"
)

// peventOpts returns free-network options running the parallel event
// kernel at an explicit worker count.
func peventOpts(procs, workers int) Options {
	o := freeOpts(procs)
	o.Kernel = KernelParallelEvent
	o.Workers = workers
	return o
}

// TestParallelEventWorkerCount pins the Options.Workers resolution:
// zero/negative auto-sizes, explicit counts clamp to procs.
func TestParallelEventWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		workers, procs, min, max int
	}{
		{0, 8, 1, 8},  // auto: min(GOMAXPROCS, procs)
		{-3, 8, 1, 8}, // negative treated as auto
		{4, 8, 4, 4},  // explicit
		{64, 8, 8, 8}, // clamped to procs
		{2, 1, 1, 1},  // clamped to a single rank
	} {
		got := peWorkerCount(tc.workers, tc.procs)
		if got < tc.min || got > tc.max {
			t.Errorf("peWorkerCount(%d, %d) = %d, want in [%d, %d]", tc.workers, tc.procs, got, tc.min, tc.max)
		}
	}
	// Options.Workers is ignored under the event name: always one worker.
	opts := freeOpts(8)
	opts.Kernel, opts.Workers = KernelEvent, 8
	err := Run(opts, func(c *Comm) error {
		if n := len(c.world.eng.workers); n != 1 {
			return fmt.Errorf("KernelEvent with Workers=8 ran on %d workers, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// TestParallelEventProbeAfterBarrier pins the one seam where staging
// could leak into program behavior: a message sent before a barrier must
// be visible to Probe after it, even when sender and prober live on
// different workers and the message spent a window parked in a staging
// lane. The multi-worker barrier defers every release to the window
// fold, after lanes merge, precisely to keep this guarantee.
func TestParallelEventProbeAfterBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for rounds := 0; rounds < 3; rounds++ {
			err := Run(peventOpts(4, workers), func(c *Comm) error {
				last := c.Size() - 1
				if c.Rank() == 0 {
					if err := c.Isend(last, 5, "pre-barrier", 64); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == last {
					if !c.Probe(0, 5) {
						return fmt.Errorf("pre-barrier send invisible to post-barrier Probe")
					}
					if _, err := c.Recv(0, 5); err != nil {
						return err
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
	}
}

// TestParallelEventCrossWorkerFIFO pins per-source FIFO across a staging
// lane: many same-(src,tag) messages from one worker's rank must be
// received in program order by a rank on another worker.
func TestParallelEventCrossWorkerFIFO(t *testing.T) {
	const n = 32
	for _, workers := range []int{1, 2, 4} {
		err := Run(peventOpts(4, workers), func(c *Comm) error {
			last := c.Size() - 1
			switch c.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					if err := c.Isend(last, 3, i, 8); err != nil {
						return err
					}
				}
			case last:
				for i := 0; i < n; i++ {
					got, err := c.Recv(0, 3)
					if err != nil {
						return err
					}
					if got.(int) != i {
						return fmt.Errorf("recv %d: got %v, want %d", i, got, i)
					}
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
