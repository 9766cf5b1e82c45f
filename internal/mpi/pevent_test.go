package mpi

// Unit tests of the event-driven kernel's multi-worker seams: per-source
// FIFO across a staging lane, a worker running a whole superstep ahead of
// its sibling, the window count, and the worker-count resolution rules.
// The failure paths are in event_test.go, one table over worker counts.

import (
	"fmt"
	"runtime"
	"testing"

	"ic2mpi/internal/netmodel"
)

// TestParallelEventWorkerCount pins the Options.Workers resolution:
// zero/negative auto-sizes, explicit counts clamp to procs. It is also
// where the kernel names are tested, once: every other test sets a worker
// count under the default name.
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
	// Run resolves the count per name: the event name runs one worker
	// whatever Options.Workers says, the other two run Options.Workers,
	// the automatic count when it is 0. Every name fills Probe: eight
	// ranks that return at once are one window of eight activations.
	auto := min(runtime.GOMAXPROCS(0), 8)
	for _, tc := range []struct {
		kernel        Kernel
		workers, want int
	}{
		{KernelGoroutine, 0, auto},
		{KernelGoroutine, 3, 3},
		{KernelEvent, 0, 1},
		{KernelEvent, 3, 1},
		{KernelParallelEvent, 0, auto},
		{KernelParallelEvent, 3, 3},
	} {
		var probe KernelCounters
		opts := freeOpts(8)
		opts.Kernel, opts.Workers, opts.Probe = tc.kernel, tc.workers, &probe
		err := Run(opts, func(c *Comm) error {
			if n := len(c.world.eng.workers); n != tc.want {
				return fmt.Errorf("%v with Workers=%d ran on %d workers, want %d", tc.kernel, tc.workers, n, tc.want)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if want := (KernelCounters{Windows: 1, Activations: 8}); probe != want {
			t.Errorf("%v with Workers=%d: Probe %+v, want %+v", tc.kernel, tc.workers, probe, want)
		}
	}
}

// TestParallelEventCrossWorkerFIFO pins per-source FIFO across a staging
// lane: many same-(src,tag) messages from one worker's rank must be
// received in program order by a rank on another worker.
func TestParallelEventCrossWorkerFIFO(t *testing.T) {
	const n = 32
	for _, workers := range []int{1, 2, 4} {
		opts := freeOpts(4)
		opts.Workers = workers
		err := Run(opts, func(c *Comm) error {
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

// TestParallelEventRunsAhead is the case a bound on how far a worker may
// run ahead would exist for, on the machine where that bound would be
// zero: under the free (zero-latency) network the first half of the
// ranks — all of worker 0 at two and three workers — charge 1000x more
// per step than the rest, so a light worker finishes each superstep
// before a heavy one's first fold. Every rank exchanges with a partner on
// another worker each step and receives the partner's pre-barrier
// message after the barrier. Clocks and Stats must equal the one-worker
// run's bit for bit at every worker count.
func TestParallelEventRunsAhead(t *testing.T) {
	const procs, steps = 6, 5
	snaps := runAllKernels(t, freeOpts(procs), func(c *Comm) error {
		r := c.Rank()
		partner := (r + procs/2) % procs
		cost := 1e-6
		if r < procs/2 {
			cost = 1e-3
		}
		for step := 0; step < steps; step++ {
			c.Charge(cost * float64(step+r+1))
			if err := c.Isend(partner, step, r, 32); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			got, err := c.Recv(partner, step)
			if err != nil {
				return err
			}
			if got != partner {
				return fmt.Errorf("rank %d step %d: received %v from partner %d", r, step, got, partner)
			}
		}
		return nil
	})
	checkKernelsAgree(t, "free network", snaps)
}

// TestWindowCountPinned pins what the coordinator does for a 256-rank
// ring halo with a barrier per iteration on the hypercube at two workers:
// two windows per iteration — one ends with the two boundary pairs parked
// on a staged message, the next with everyone in the barrier — where a
// window bounded by the network's smallest delay took hundreds. The
// counts are a function of the program and the worker count only, so they
// repeat exactly, and observing them changes nothing. The last rows are the
// same program at one worker.
func TestWindowCountPinned(t *testing.T) {
	const procs, iters = 256, 20
	cost, err := netmodel.New(netmodel.NameHypercube, procs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, probe *KernelCounters) []kernelSnap {
		snaps := make([]kernelSnap, procs)
		opts := Options{Procs: procs, Cost: cost, Workers: workers, Probe: probe}
		err := Run(opts, func(c *Comm) error {
			next, prev := (c.Rank()+1)%procs, (c.Rank()+procs-1)%procs
			for it := 0; it < iters; it++ {
				c.Charge(1e-5)
				for _, dst := range []int{next, prev} {
					if err := c.Isend(dst, it, c.Rank(), 64); err != nil {
						return err
					}
				}
				for _, src := range []int{prev, next} {
					if _, err := c.Recv(src, it); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			snaps[c.Rank()] = kernelSnap{c.Wtime(), c.Stats()}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	var first, second KernelCounters
	observed, plain := run(2, &first), run(2, nil)
	run(2, &second)
	// Every rank parks twice an iteration (a Recv, the barrier) and is
	// resumed once more than it parks; four messages an iteration cross
	// the two worker boundaries.
	want := KernelCounters{Windows: 2*iters + 1, Activations: procs * (2*iters + 1), Parks: procs * 2 * iters, StagedMsgs: 4 * iters}
	if first != want {
		t.Errorf("counters %+v, pinned %+v", first, want)
	}
	if second != first {
		t.Errorf("counters do not repeat: %+v then %+v", first, second)
	}
	for r := range plain {
		if observed[r] != plain[r] {
			t.Errorf("rank %d: %+v with Probe set, %+v without", r, observed[r], plain[r])
		}
	}
	// The same program at one worker: one window and nothing staged. A
	// rank parks a little less than twice an iteration — a barrier's last
	// arriver releases the rest and goes on, and a rank that runs after
	// both neighbours finds both messages queued — by a count that is the
	// run queue's wake order and nothing else, so it is pinned from the run.
	var one KernelCounters
	single := run(1, &one)
	if want := (KernelCounters{Windows: 1, Activations: 10446, Parks: 10190}); one != want {
		t.Errorf("one-worker counters %+v, pinned %+v", one, want)
	}
	for r := range plain {
		if single[r] != plain[r] {
			t.Errorf("rank %d: %+v at one worker, %+v at two", r, single[r], plain[r])
		}
	}
}
