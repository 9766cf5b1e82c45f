package mpi

// Unit tests of the event-driven kernel under both of its names:
// in-package equivalence smokes against the goroutine kernel, the
// failure paths the big differential suite (TestKernelEquivalence at the
// repo root) cannot reach, and the ordering contract of the event queue
// itself.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
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
// equivalence smokes cross-check: the three kernel names, with pevent
// also pinned at explicit worker counts so worker partitioning
// (including a block size of one) is exercised regardless of GOMAXPROCS.
// One worker is the event row.
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
// bit for bit, to the goroutine kernel's.
func checkKernelsAgree(t *testing.T, label string, snaps map[string][]kernelSnap) {
	t.Helper()
	base := snaps["goroutine"]
	for name, got := range snaps {
		for r := range base {
			if base[r] != got[r] {
				t.Errorf("%s: rank %d diverges:\n  goroutine %+v\n  %-9s %+v", label, r, base[r], name, got[r])
			}
		}
	}
}

// TestEventKernelEquivalenceSmoke drives a deliberately gnarly SPMD
// program — ring traffic, self-sends, AnyTag receives, Probe polling,
// Irecv/Wait, collectives and repeated barriers — under both kernels on
// a uniform and on a mesh topology machine, and asserts identical
// virtual clocks and stats. The scenario-level differential suite pins
// the same property on real workloads.
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
		opts := Options{Procs: 6, Cost: model, Mode: VirtualClock}
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
				req, err := c.Irecv(prev, 8)
				if err != nil {
					return err
				}
				c.Charge(2e-6)
				if _, err := req.Wait(); err != nil {
					return err
				}
				// Self-send plus an AnyTag receive, gated on Probe.
				if err := c.Send(r, 9, round, 4); err != nil {
					return err
				}
				if !c.Probe(r, AnyTag) {
					return fmt.Errorf("rank %d: self-send not probed", r)
				}
				if _, err := c.Recv(r, AnyTag); err != nil {
					return err
				}
				if _, err := c.AllreduceMaxFloat64(c.Wtime()); err != nil {
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

// eventConfigs is the table the failure-path tests run over: the
// one-worker kernel under its own name, and pevent with the ranks split
// over two and three workers, so the failing rank, the blocked ranks and
// a phantom sender land both together and apart.
var eventConfigs = []struct {
	name    string
	kernel  Kernel
	workers int
}{
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

// TestEventKernelRejectsRealClock pins the mode restriction.
func TestEventKernelRejectsRealClock(t *testing.T) {
	forEventKernels(t, 2, func(t *testing.T, opts Options) {
		opts.Mode = RealClock
		if err := Run(opts, func(c *Comm) error { return nil }); err == nil {
			t.Fatal("expected an error for RealClock under an event kernel")
		}
	})
}

// TestEventKernelDetectsDeadlock: a receive that can never be satisfied
// drains every event heap; the kernel must fail the world, whether the
// blocked rank shares a worker with its phantom sender or not (the
// goroutine kernel would hang forever here, which is why it has no row).
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

// TestEventKernelErrorAndPanicPropagate mirrors TestRankErrorPropagates
// and TestPanicConvertedToError on the event path: the failure must
// unblock ranks parked in Recv and in Barrier, including on workers the
// failing rank does not own. The failing rank is the last one and first
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

// TestEventKernelFailUnblocks mirrors TestFailUnblocksBarrier: Comm.Fail
// from a running rank must wake barrier waiters, on its own worker and
// on others.
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

// TestEventQueueOrder drives the queue with a seeded random insertion
// pattern and asserts pops come out in strict (time, rank, seq) order —
// the determinism contract FuzzEventQueue explores adversarially.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var q eventQueue
	var seq uint64
	var want []event
	for i := 0; i < 2000; i++ {
		seq++
		e := event{time: float64(rng.Intn(50)) * 0.125, rank: int32(rng.Intn(8)), seq: seq}
		q.push(e)
		want = append(want, e)
		if rng.Intn(3) == 0 && q.Len() > 0 {
			got := q.pop()
			best := 0
			for j := 1; j < len(want); j++ {
				if eventLess(want[j], want[best]) {
					best = j
				}
			}
			if got != want[best] {
				t.Fatalf("pop %d: got %+v, want %+v", i, got, want[best])
			}
			want = append(want[:best], want[best+1:]...)
		}
	}
	sort.Slice(want, func(i, j int) bool { return eventLess(want[i], want[j]) })
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("drain: got %+v, want %+v", got, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// FuzzEventQueue feeds arbitrary interleaved push/pop traffic to the
// event queue and asserts the pop order is exactly the (time, rank, seq)
// total order — random insertions must pop deterministically.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 16, 32, 64, 128})
	f.Add([]byte{9, 1, 9, 1, 9, 1, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		var seq uint64
		var live []event
		for i := 0; i+1 < len(data); i += 2 {
			seq++
			e := event{
				// A coarse time grid forces plenty of ties so the
				// (rank, seq) tie-break actually decides.
				time: float64(data[i]>>4) * 0.25,
				rank: int32(data[i] & 0x0f),
				seq:  seq,
			}
			q.push(e)
			live = append(live, e)
			if data[i+1]%3 == 0 && q.Len() > 0 {
				got := q.pop()
				best := 0
				for j := 1; j < len(live); j++ {
					if eventLess(live[j], live[best]) {
						best = j
					}
				}
				if got != live[best] {
					t.Fatalf("pop: got %+v, want %+v", got, live[best])
				}
				live = append(live[:best], live[best+1:]...)
			}
		}
		sort.Slice(live, func(i, j int) bool { return eventLess(live[i], live[j]) })
		for _, w := range live {
			if got := q.pop(); got != w {
				t.Fatalf("drain: got %+v, want %+v", got, w)
			}
		}
	})
}

// BenchmarkEventQueue measures steady-state push/pop throughput at a
// queue depth typical of a large world (one outstanding event per rank).
func BenchmarkEventQueue(b *testing.B) {
	const depth = 4096
	var q eventQueue
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, depth)
	for i := range times {
		times[i] = rng.Float64()
	}
	var seq uint64
	for i := 0; i < depth; i++ {
		seq++
		q.push(event{time: times[i], rank: int32(i), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		seq++
		e.time += times[i%depth]
		e.seq = seq
		q.push(e)
	}
}
