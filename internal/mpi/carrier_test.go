package mpi

// Tests of the carrier pool's lifecycle: what a run returns to the pool
// and what it stops, that a pooled carrier holds nothing of its run, that
// concurrent runs share the pool, and that GC cycles empty it.

import (
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"
)

// quietGoroutines drains the pool and returns the goroutine count once
// the goroutines of earlier runs have finished exiting.
func quietGoroutines() int {
	DrainCarriers()
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// noAutoGC turns the collector's own cycles off for the rest of the test,
// so that only the test's runtime.GC calls sweep the pool. The cycle that
// turning them off may leave behind is run, and its sweep given time to
// finish, first.
func noAutoGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	runtime.GC()
	quietGoroutines()
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

// TestCarrierRetainsNothing: a pooled carrier drops every reference to
// its run, so an object only the rank program captured is collected by
// the first GC cycle after the run, which finds the carriers pooled.
func TestCarrierRetainsNothing(t *testing.T) {
	noAutoGC(t)
	forEventKernels(t, 4, func(t *testing.T, opts Options) {
		base := runtime.NumGoroutine()
		wp := runCapturing(t, opts)
		// A worker goroutine refers to the run until it has exited.
		if !waitFor(func() bool { return runtime.NumGoroutine() == base+opts.Procs }) {
			t.Fatalf("%d goroutines, want %d plus %d pooled carriers", runtime.NumGoroutine(), base, opts.Procs)
		}
		// Only a cycle's sweep, after it, stops a pooled carrier.
		if n := len(pooledCarriers()); n != opts.Procs {
			t.Fatalf("%d carriers pooled before the GC cycle, want %d", n, opts.Procs)
		}
		runtime.GC()
		if wp.Value() != nil {
			t.Error("an object the rank program captured outlived the run in a pooled carrier")
		}
	})
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
	marked := func() bool {
		idle.mu.Lock()
		defer idle.mu.Unlock()
		return idle.old > 0
	}
	if !gcUntil(marked) {
		t.Fatal("GC cycles ran no sweep")
	}
	if n := len(pooledCarriers()); n != procs {
		t.Fatalf("one sweep left %d of %d carriers pooled, want all of them", n, procs)
	}
	if !gcUntil(func() bool { return runtime.NumGoroutine() == before }) {
		t.Fatalf("two sweeps left %d goroutines, %d before the run", runtime.NumGoroutine(), before)
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
