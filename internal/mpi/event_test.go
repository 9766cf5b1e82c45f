package mpi

// Unit tests of the engine under every kernel name: in-package
// equivalence smokes against its one-worker run (event), the failure
// paths the big differential suite (TestKernelEquivalence at the repo
// root) cannot reach, and the run queue itself.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/topology"
)

// kernelSnap is one rank's observable outcome: final virtual clock and
// full stats counters.
type kernelSnap struct {
	Time  float64
	Stats Stats
}

// kernelMatrix enumerates every engine configuration the in-package
// equivalence smokes cross-check: the three kernel names (goroutine and
// pevent at the automatic worker count), with pevent also pinned at
// explicit worker counts so worker partitioning (including a block size
// of one) is exercised regardless of GOMAXPROCS. One worker is the event
// row, the reference.
func kernelMatrix(procs int) map[string]Options {
	m := map[string]Options{
		"goroutine": {Kernel: KernelGoroutine},
		"event":     {Kernel: KernelEvent},
		"pevent":    {Kernel: KernelParallelEvent},
	}
	for _, w := range []int{2, 3} {
		if w <= procs {
			m[fmt.Sprintf("pevent-w%d", w)] = Options{Kernel: KernelParallelEvent, Workers: w}
		}
	}
	return m
}

// runAllKernels executes fn under every kernel configuration and returns
// per-rank (Wtime, Stats) snapshots taken after fn returns, keyed by
// configuration label.
func runAllKernels(t *testing.T, opts Options, fn func(c *Comm) error) map[string][]kernelSnap {
	t.Helper()
	out := make(map[string][]kernelSnap)
	for label, cfg := range kernelMatrix(opts.Procs) {
		snaps := make([]kernelSnap, opts.Procs)
		o := opts
		o.Kernel = cfg.Kernel
		o.Workers = cfg.Workers
		err := Run(o, func(c *Comm) error {
			if err := fn(c); err != nil {
				return err
			}
			snaps[c.Rank()] = kernelSnap{c.Wtime(), c.Stats()}
			return nil
		})
		if err != nil {
			t.Fatalf("kernel %s: %v", label, err)
		}
		out[label] = snaps
	}
	return out
}

// checkKernelsAgree asserts every configuration's snapshot is identical,
// bit for bit, to the one-worker run's (event).
func checkKernelsAgree(t *testing.T, label string, snaps map[string][]kernelSnap) {
	t.Helper()
	base := snaps["event"]
	for name, got := range snaps {
		for r := range base {
			if base[r] != got[r] {
				t.Errorf("%s: rank %d diverges:\n  event     %+v\n  %-9s %+v", label, r, base[r], name, got[r])
			}
		}
	}
}

// TestEventKernelEquivalenceSmoke drives a deliberately gnarly SPMD
// program — ring traffic, self-sends, AnyTag receives, a receive behind
// local work, collectives and repeated barriers — under every kernel
// configuration on a uniform and on a mesh topology machine, and asserts
// identical virtual clocks and stats. The scenario-level differential
// suite pins the same property on real workloads.
func TestEventKernelEquivalenceSmoke(t *testing.T) {
	mesh, err := topology.Mesh2D(6)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]netmodel.Model{
		"uniform": netmodel.NewUniform(netmodel.Origin2000()),
		"mesh2d":  netmodel.Topology{Base: netmodel.Origin2000(), Net: mesh},
	}
	for name, model := range models {
		opts := Options{Procs: 6, Cost: model}
		snaps := runAllKernels(t, opts, func(c *Comm) error {
			n, r := c.Size(), c.Rank()
			for round := 0; round < 4; round++ {
				c.SetEpoch(round)
				c.Charge(float64(r+1) * 1e-5)
				// Ring exchange, two tags interleaved.
				next, prev := (r+1)%n, (r+n-1)%n
				if err := c.Isend(next, 7, r*10+round, 8); err != nil {
					return err
				}
				if err := c.Isend(next, 8, r, 16); err != nil {
					return err
				}
				if _, err := c.Recv(prev, 7); err != nil {
					return err
				}
				c.Charge(2e-6)
				if _, err := c.Recv(prev, 8); err != nil {
					return err
				}
				// Self-send plus an AnyTag receive.
				if err := c.Isend(r, 9, round, 4); err != nil {
					return err
				}
				if _, err := c.Recv(r, AnyTag); err != nil {
					return err
				}
				if _, err := c.Allgather(c.Wtime(), 8); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			_, err := c.GatherInts(0, []int{r})
			return err
		})
		checkKernelsAgree(t, name, snaps)
	}
}

// eventConfigs is the table the failure-path tests run over: the default
// name at the automatic worker count, the one-worker kernel under its own
// name, and pevent with the ranks split over two and three workers, so
// the failing rank, the blocked ranks and a phantom sender land both
// together and apart.
var eventConfigs = []struct {
	name    string
	kernel  Kernel
	workers int
}{
	{"goroutine", KernelGoroutine, 0},
	{"event", KernelEvent, 0},
	{"pevent-w2", KernelParallelEvent, 2},
	{"pevent-w3", KernelParallelEvent, 3},
}

// forEventKernels runs body once per eventConfigs row, as a
// subtest, with free-network options at the given rank count, and then
// checks the carrier lifecycle: however the runs inside body ended, no
// rank coroutine and no worker goroutine outlives them.
func forEventKernels(t *testing.T, procs int, body func(t *testing.T, opts Options)) {
	for _, cfg := range eventConfigs {
		opts := freeOpts(procs)
		opts.Kernel, opts.Workers = cfg.kernel, cfg.workers
		t.Run(cfg.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			body(t, opts)
			// Carriers are gone when Run returns; a worker goroutine may
			// still be on its way out of its closed start channel.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the runs, %d after: a carrier or a worker leaked", before, after)
			}
		})
	}
}

// TestEventKernelDetectsDeadlock: a receive that can never be satisfied
// empties every run queue; the engine must fail the world under every
// name, whether the blocked rank shares a worker with its phantom sender
// or not.
func TestEventKernelDetectsDeadlock(t *testing.T) {
	forEventKernels(t, 3, func(t *testing.T, opts Options) {
		err := Run(opts, func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.Recv(1, 42) // rank 1 never sends
				return err
			}
			return nil
		})
		if want := "mpi: deadlock: 1 of 3 ranks blocked with no runnable event"; err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}

// TestEventKernelErrorAndPanicPropagate: an error a rank returns and a
// panic it raises both become Run's error, and the failure must unblock
// ranks parked in Recv and in Barrier, including on workers the failing
// rank does not own. The failing rank is the last one and first
// collects a token from every sibling, so each sibling is parked when it
// fails: one on its own worker ran before it, and a token from another
// worker crosses only at the fold that follows its sender's park. The
// clean row runs the same hand-offs to the end: in the token window only
// the last worker has events, so the coordinator resumes its rank; after
// the barrier every worker has, so that worker's own goroutine does.
func TestEventKernelErrorAndPanicPropagate(t *testing.T) {
	boom := errors.New("boom")
	forEventKernels(t, 4, func(t *testing.T, opts Options) {
		for _, tc := range []struct{ mode, want string }{
			{"clean", ""},
			{"error", "mpi: rank 3: boom"},
			{"panic", "mpi: rank 3 panicked: kaboom"},
		} {
			err := Run(opts, func(c *Comm) error {
				last := c.Size() - 1
				for round := 0; round < 3; round++ {
					if c.Rank() != last {
						if err := c.Isend(last, round, nil, 8); err != nil {
							return err
						}
						if c.Rank() == 0 && tc.mode != "clean" {
							_, err := c.Recv(1, 99) // parked in Recv when the last rank fails
							return err
						}
					} else {
						for src := 0; src < last; src++ {
							if _, err := c.Recv(src, round); err != nil {
								return err
							}
						}
						switch tc.mode {
						case "error":
							return boom
						case "panic":
							panic("kaboom")
						}
					}
					if err := c.Barrier(); err != nil { // parked here when the last rank fails
						return err
					}
				}
				return nil
			})
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("%s: got error %q, want %q", tc.mode, got, tc.want)
			}
		}
	})
}

// TestEventKernelFailUnblocks: Comm.Fail from a running rank must wake
// barrier waiters, on its own worker and on others.
func TestEventKernelFailUnblocks(t *testing.T) {
	forEventKernels(t, 3, func(t *testing.T, opts Options) {
		err := Run(opts, func(c *Comm) error {
			if c.Rank() == 2 {
				c.Fail(errors.New("deliberate"))
				return nil
			}
			return c.Barrier()
		})
		if want := "mpi: rank 2: deliberate"; err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}

// TestEventRunQueue pins the run queue's whole contract: ranks come out
// in the order they went in, through several trips round the ring, with
// the ring full and with it empty, and Len counts what is queued.
func TestEventRunQueue(t *testing.T) {
	const size = 5
	q := runQueue{ring: make([]int32, size)}
	next, want := int32(0), int32(0) // next rank to push, next expected from pop
	pop := func() {
		t.Helper()
		if got := q.pop(); got != want {
			t.Fatalf("pop: got %d, want %d", got, want)
		}
		want++
	}
	// Depths 1..size (the full ring last), each pushed from wherever the
	// previous round left head: 15 pushes through a ring of 5.
	for depth := 1; depth <= size; depth++ {
		for i := 0; i < depth; i++ {
			q.push(next)
			next++
			if q.Len() != i+1 {
				t.Fatalf("depth %d: Len %d after %d pushes", depth, q.Len(), i+1)
			}
		}
		for q.Len() > 0 {
			pop()
		}
	}
	// Interleaved at a standing depth, so head and tail both wrap mid-run.
	for i := 0; i < size-1; i++ {
		q.push(next)
		next++
	}
	for i := 0; i < 4*size; i++ {
		pop()
		q.push(next)
		next++
		if q.Len() != size-1 {
			t.Fatalf("interleaved step %d: Len %d, want %d", i, q.Len(), size-1)
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("%d ranks pushed, %d popped", next, want)
	}
}

// TestEventRankQueuedOnce drives the two places a rank could be queued
// twice, which in a ring of exactly block size would overwrite a slot and
// lose a rank for good. First a fan-in: rank 0 receives from every other
// rank in descending order while they all send at once, so each message
// reaches a rank that is waiting for another source or is already queued;
// the received values and the final clocks are pinned against the
// one-worker run. Then the same fan-in with a Fail from the last sender
// while rank 0 is queued for its message and the others are parked in the
// barrier: wakeBlock runs over a rank that is already queued and over the
// failing rank itself (at one worker that fills the ring to its last
// slot), and every rank must still unwind with the pinned error.
func TestEventRankQueuedOnce(t *testing.T) {
	const procs = 9
	fanIn := func(failing bool, sums []int) func(c *Comm) error {
		return func(c *Comm) error {
			for round := 0; round < 3; round++ {
				if c.Rank() != 0 {
					if err := c.Isend(0, round, c.Rank()*(round+1), 8); err != nil {
						return err
					}
					if failing && round == 1 && c.Rank() == procs-1 {
						c.Fail(errors.New("deliberate"))
						return nil
					}
				} else {
					for src := procs - 1; src > 0; src-- {
						v, err := c.Recv(src, round)
						if err != nil {
							return err
						}
						sums[round] = sums[round]*10 + v.(int)%10
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// clean runs the fan-in to the end and returns what rank 0 received
	// and every rank's final clock.
	clean := func(t *testing.T, o Options) (sums [3]int, clocks [procs]float64) {
		body := fanIn(false, sums[:])
		if err := Run(o, func(c *Comm) error {
			err := body(c)
			clocks[c.Rank()] = c.Wtime()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return sums, clocks
	}
	cost := netmodel.NewUniform(netmodel.Origin2000())
	opts := freeOpts(procs)
	opts.Cost, opts.Kernel = cost, KernelEvent
	ref, refClocks := clean(t, opts)
	if want := [3]int{87654321, 64208642, 41852963}; ref != want {
		t.Fatalf("one worker received %v, pinned %v", ref, want)
	}
	forEventKernels(t, procs, func(t *testing.T, o Options) {
		o.Cost = cost
		if got, clocks := clean(t, o); got != ref || clocks != refClocks {
			t.Errorf("received %v with clocks %v, one worker %v with %v", got, clocks, ref, refClocks)
		}
		err := Run(o, fanIn(true, make([]int, 3)))
		if want := "mpi: rank 8: deliberate"; err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}
