package mpi

// Tests of the carrier pool's lifecycle: what a run returns to the pool
// and what it stops, that a pooled carrier holds nothing of its run, that
// concurrent runs share the pool, and that GC cycles empty it.

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"
)

// engineGoroutines counts the engine's goroutines alive in the process
// after a run: the carriers, running, parked or pooled, and the goroutines
// a window forked for its workers, found by their functions in a dump of
// every goroutine's stack. Run's join returns as each forked goroutine
// signs off, an instant before it ends, so the count waits up to 5 s for
// the forked ones to be gone. The process's goroutine count would also
// count the testing package's goroutines and the runtime's cleanup
// goroutine, which come and go on their own schedule.
func engineGoroutines() int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<16)
		for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		carriers, forked := 0, 0
		for _, g := range bytes.Split(buf, []byte("\n\n")) {
			switch {
			case bytes.Contains(g, []byte("mpi.(*peWorker).forkedWindow")):
				forked++
			case bytes.Contains(g, []byte("mpi.(*peWorker).runWindow.func")):
				carriers++
			}
		}
		if forked == 0 || time.Now().After(deadline) {
			return carriers + forked
		}
		time.Sleep(time.Millisecond)
	}
}

// quietGoroutines drains the pool and returns engineGoroutines. Stopping a
// carrier ends its coroutine, so the count is final once the forked
// goroutines are gone.
func quietGoroutines() int {
	DrainCarriers()
	return engineGoroutines()
}

// noAutoGC turns the collector's own cycles off for the rest of the test,
// so that only the test's runtime.GC calls sweep the pool. A cycle that
// ran before may still have its sweep to come, on the runtime's cleanup
// goroutine; so one carrier is pooled, and cycles are run until sweeps
// have marked it and then stopped it, which leaves no sweep pending.
func noAutoGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	DrainCarriers()
	if err := Run(freeOpts(1), func(*Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !gcUntil(marked) || !gcUntil(func() bool { return len(pooledCarriers()) == 0 }) {
		t.Fatal("GC cycles ran no sweep")
	}
}

// marked reports whether a sweep has marked a pooled carrier.
func marked() bool {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return idle.old > 0
}

// pooledCarriers returns the carriers the pool holds.
func pooledCarriers() []*carrier {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return slices.Clone(idle.free)
}

// ringProgram passes a token round the ring and meets a barrier, rounds
// times, and records each rank's clock and stats.
func ringProgram(rounds int, snaps []kernelSnap) func(c *Comm) error {
	return func(c *Comm) error {
		n, r := c.Size(), c.Rank()
		for round := 0; round < rounds; round++ {
			c.Charge(float64(r+1) * 1e-6)
			if err := c.Isend((r+1)%n, round, r, 8*(r+1)); err != nil {
				return err
			}
			if _, err := c.Recv((r+n-1)%n, round); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		snaps[r] = kernelSnap{c.Wtime(), c.Stats()}
		return nil
	}
}

// runRing runs ringProgram under opts and returns the snapshots.
func runRing(t *testing.T, opts Options) []kernelSnap {
	t.Helper()
	snaps := make([]kernelSnap, opts.Procs)
	if err := Run(opts, ringProgram(3, snaps)); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestCarrierReusableAfterPanic: runRank recovers a rank's panic, so the
// carrier of a rank that panicked, and those of the ranks its failure
// unwound, go back to the pool, and a second run on those very carriers
// gives what a run on new ones gives.
func TestCarrierReusableAfterPanic(t *testing.T) {
	forEventKernels(t, 4, func(t *testing.T, opts Options) {
		err := Run(opts, func(c *Comm) error {
			if c.Rank() == 3 {
				panic("kaboom")
			}
			return c.Barrier()
		})
		if want := "mpi: rank 3 panicked: kaboom"; err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
		pool := pooledCarriers()
		if len(pool) != opts.Procs {
			t.Fatalf("%d carriers pooled after the panic, want %d", len(pool), opts.Procs)
		}
		reused := runRing(t, opts)
		for _, c := range pooledCarriers() {
			if !slices.Contains(pool, c) {
				t.Fatal("the second run did not run on the carriers the first returned")
			}
		}
		DrainCarriers()
		if fresh := runRing(t, opts); !slices.Equal(reused, fresh) {
			t.Errorf("on reused carriers %+v, on new ones %+v", reused, fresh)
		}
	})
}

// TestCarriersOfDeadlockStopped: a deadlocked rank is parked mid-program
// when the run gives up on it, so its carrier is stopped, never pooled;
// the ranks that finished return theirs.
func TestCarriersOfDeadlockStopped(t *testing.T) {
	forEventKernels(t, 3, func(t *testing.T, opts Options) {
		err := Run(opts, func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.Recv(1, 42) // rank 1 never sends
				return err
			}
			return nil
		})
		if err == nil {
			t.Fatal("a deadlocked run returned no error")
		}
		if n := len(pooledCarriers()); n != opts.Procs-1 {
			t.Fatalf("%d carriers pooled, want %d: the deadlocked rank's carrier must be stopped", n, opts.Procs-1)
		}
		runRing(t, opts)
	})
}

// TestStopReturnsEveryCarrier: rank 0 closes Options.Stop in the third
// round of a ring program that checks Stopped at the top of each round.
// Whichever rank sees the stop first fails the run with ErrStopped; every
// other rank either sees it too or unwinds from Recv or Barrier through
// the failure, so every rank returns and every carrier goes back to the
// pool. A Stop never closed changes no clock or counter.
func TestStopReturnsEveryCarrier(t *testing.T) {
	forEventKernels(t, 4, func(t *testing.T, opts Options) {
		stop := make(chan struct{})
		opts.Stop = stop
		rounds := make([]int, opts.Procs) // rounds each rank started
		err := Run(opts, func(c *Comm) error {
			n, r := c.Size(), c.Rank()
			for round := 0; round < 100; round++ {
				if err := c.Stopped(); err != nil {
					return err
				}
				rounds[r]++
				if r == 0 && round == 2 {
					close(stop)
				}
				if err := c.Isend((r+1)%n, round, r, 8); err != nil {
					return err
				}
				if _, err := c.Recv((r+n-1)%n, round); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("got %v, want an error that is ErrStopped", err)
		}
		if rounds[0] != 3 {
			t.Errorf("rank 0 started %d rounds, want 3", rounds[0])
		}
		if n := len(pooledCarriers()); n != opts.Procs {
			t.Fatalf("%d carriers pooled after the stop, want %d", n, opts.Procs)
		}
		plain := runRing(t, freeOpts(opts.Procs))
		open := opts
		open.Stop = make(chan struct{})
		if got := runRing(t, open); !slices.Equal(got, plain) {
			t.Errorf("with an open Stop %+v, without %+v", got, plain)
		}
	})
}

// TestCarrierOfGoexitNeverPooled: a rank that calls runtime.Goexit ends
// its carrier and unwinds the Run that resumed it; the dead carrier must
// not reach the pool, where the next run would take it.
func TestCarrierOfGoexitNeverPooled(t *testing.T) {
	DrainCarriers()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(Options{Procs: 2, Workers: 1}, func(c *Comm) error {
			if c.Rank() == 0 {
				runtime.Goexit()
			}
			return nil
		})
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a rank called runtime.Goexit")
	}
	if n := len(pooledCarriers()); n != 0 {
		t.Fatalf("%d carriers pooled after a Goexit, want 0", n)
	}
	runRing(t, freeOpts(2))
}

// TestCarrierOfForkedGoexitNeverPooled: a rank that calls runtime.Goexit
// on a worker the window forked ends that goroutine, not the caller's. The
// join still returns, Run fails with an error that names the rank and
// Goexit, and of the two carriers only the other rank's is pooled.
func TestCarrierOfForkedGoexitNeverPooled(t *testing.T) {
	DrainCarriers()
	errc := make(chan error, 1)
	go func() {
		errc <- Run(Options{Procs: 2, Workers: 2}, func(c *Comm) error {
			if c.Rank() == 1 {
				runtime.Goexit()
			}
			return nil
		})
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "Goexit") {
			t.Fatalf("Run returned %v, want an error naming rank 1 and runtime.Goexit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10 s after a rank on a forked worker called runtime.Goexit")
	}
	if n := len(pooledCarriers()); n != 1 {
		t.Fatalf("%d carriers pooled after a Goexit, want rank 0's alone", n)
	}
	runRing(t, freeOpts(2))
}

// TestCarrierRetainsNothing: a pooled carrier drops every reference to
// its run, so an object only the rank program captured, a payload its
// receiver took and one nobody received are collected by the first GC
// cycle after the run, which finds the carriers pooled (the receive
// queues ride on them).
func TestCarrierRetainsNothing(t *testing.T) {
	noAutoGC(t)
	forEventKernels(t, 4, func(t *testing.T, opts Options) {
		wp := runCapturing(t, opts)
		received, unreceived := runLeavingPayload(t, opts)
		// No worker goroutine, which would refer to the run, is left.
		if n := engineGoroutines(); n != opts.Procs {
			t.Fatalf("%d engine goroutines, want the %d pooled carriers", n, opts.Procs)
		}
		// Only a cycle's sweep, after it, stops a pooled carrier.
		if n := len(pooledCarriers()); n != opts.Procs {
			t.Fatalf("%d carriers pooled before the GC cycle, want %d", n, opts.Procs)
		}
		runtime.GC()
		if wp.Value() != nil {
			t.Error("an object the rank program captured outlived the run in a pooled carrier")
		}
		if received.Value() != nil {
			t.Error("a received payload outlived the run in its receiver's pooled queue")
		}
		if unreceived.Value() != nil {
			t.Error("a payload nobody received outlived the run in its receiver's pooled queue")
		}
	})
}

// runLeavingPayload runs a program in which rank 0 sends rank 3 two
// payloads, big enough that the allocator does not batch them, and rank 3
// receives only the first; it returns weak pointers to both.
func runLeavingPayload(t *testing.T, opts Options) (received, unreceived weak.Pointer[[64]byte]) {
	if err := Run(opts, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			a, b := new([64]byte), new([64]byte)
			received, unreceived = weak.Make(a), weak.Make(b)
			if err := c.Isend(3, 1, a, len(a)); err != nil {
				return err
			}
			return c.Isend(3, 2, b, len(b))
		case 3:
			_, err := c.Recv(0, 1)
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return received, unreceived
}

// runCapturing runs a program that captures a fresh object and returns
// a weak pointer to it.
func runCapturing(t *testing.T, opts Options) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	if err := Run(opts, func(c *Comm) error {
		obj[c.Rank()] = 1
		return c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	return weak.Make(obj)
}

// TestCarrierPoolConcurrentRuns: runs on 2 and 4 workers take carriers
// from and return them to the one pool at once, and each gets what it
// gets alone (CI runs it under -race).
func TestCarrierPoolConcurrentRuns(t *testing.T) {
	const runners, runs = 4, 5
	want := map[int][]kernelSnap{}
	for _, procs := range []int{8, 13} {
		want[procs] = runRing(t, Options{Procs: procs, Workers: 1})
	}
	var wg sync.WaitGroup
	errs := make(chan error, runners*runs)
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				procs := []int{8, 13}[(g+i)%2]
				snaps := make([]kernelSnap, procs)
				opts := Options{Procs: procs, Workers: 2 + 2*(g%2)}
				if err := Run(opts, ringProgram(3, snaps)); err != nil {
					errs <- err
				} else if !slices.Equal(snaps, want[procs]) {
					errs <- errors.New("a concurrent run diverged from the same run alone")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCarrierPoolEmptiesAfterTwoGCs: the carriers of a 4096-rank run
// (256 under the race detector, which limits live goroutines) stay pooled
// through one GC cycle's sweep and are stopped by the next, which brings
// the goroutine count back to what it was before the run.
func TestCarrierPoolEmptiesAfterTwoGCs(t *testing.T) {
	procs := 4096
	if raceEnabled {
		procs = 256
	}
	noAutoGC(t)
	before := quietGoroutines()
	if err := Run(Options{Procs: procs}, func(c *Comm) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if !gcUntil(marked) {
		t.Fatal("GC cycles ran no sweep")
	}
	if n := len(pooledCarriers()); n != procs {
		t.Fatalf("one sweep left %d of %d carriers pooled, want all of them", n, procs)
	}
	if !gcUntil(func() bool { return engineGoroutines() == before }) {
		t.Fatalf("two sweeps left %d engine goroutines, %d before the run", engineGoroutines(), before)
	}
}

// gcUntil runs GC cycles, one at a time and each time waiting for cond,
// until cond holds, and reports whether it did. A sweep runs on the
// runtime's cleanup goroutine after the cycle that triggers it, and a
// cycle that starts before the previous sweep has re-armed triggers none,
// so the first cycle does not always sweep.
func gcUntil(cond func() bool) bool {
	for range 5 {
		if cond() {
			return true
		}
		runtime.GC()
		if waitFor(cond) {
			return true
		}
	}
	return false
}

// waitFor polls cond for up to five seconds and reports whether it held.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}
