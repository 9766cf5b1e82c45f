package mpi

// Tests of ranks declared never to block (Options.NeverBlocks): they run
// on their worker's goroutine with no coroutine, give what a coroutine
// gives, and fail the run by name when they call something that blocks.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// oddRanks declares every odd rank never to block.
func oddRanks(r int) bool { return r%2 == 1 }

// TestDirectRanksMatchCoroutines: odd ranks send to rank 0 and return, rank
// 0 receives from each and the other even ranks return at once; declaring
// the odd ranks never to block changes no clock, counter or engine count.
func TestDirectRanksMatchCoroutines(t *testing.T) {
	const procs = 7
	program := func(c *Comm) error {
		if r := c.Rank(); r%2 == 1 {
			c.Charge(float64(r) * 1e-6)
			return c.Isend(0, 5, r, 8*r)
		} else if r == 0 {
			for src := 1; src < procs; src += 2 {
				if _, err := c.Recv(src, 5); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, row := range workerRows {
		run := func(neverBlocks func(int) bool) ([]kernelSnap, KernelCounters) {
			snaps := make([]kernelSnap, procs)
			var probe KernelCounters
			opts := freeOpts(procs)
			opts.Workers, opts.Probe, opts.NeverBlocks = row.workers, &probe, neverBlocks
			if err := Run(opts, func(c *Comm) error {
				err := program(c)
				snaps[c.Rank()] = kernelSnap{c.Wtime(), c.Stats()}
				return err
			}); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			return snaps, probe
		}
		want, plain := run(nil)
		if got, direct := run(oddRanks); !slices.Equal(got, want) || direct != plain {
			t.Errorf("%s: with odd ranks direct %+v and %+v, without %+v and %+v", row.name, got, direct, want, plain)
		}
	}
}

// TestDirectRankBlockingCallFails: odd ranks declared never to block call
// Recv, Barrier or Allgather and, ignoring the error, return; even ranks
// meet a barrier. The run fails with ErrNeverBlocks for rank 1, the lowest
// offender, at every worker count, and every carrier is pooled.
func TestDirectRankBlockingCallFails(t *testing.T) {
	for op, call := range map[string]func(c *Comm) error{
		"Recv":      func(c *Comm) error { _, err := c.Recv(0, 1); return err },
		"Barrier":   func(c *Comm) error { return c.Barrier() },
		"Allgather": func(c *Comm) error { _, err := c.Allgather(c.Rank(), 8); return err },
	} {
		t.Run(op, func(t *testing.T) {
			forEventKernels(t, 6, func(t *testing.T, opts Options) {
				opts.NeverBlocks = oddRanks
				err := Run(opts, func(c *Comm) error {
					if oddRanks(c.Rank()) {
						if err := call(c); !errors.Is(err, ErrNeverBlocks) {
							return fmt.Errorf("%s returned %v, want ErrNeverBlocks", op, err)
						}
						return nil
					}
					return c.Barrier()
				})
				if !errors.Is(err, ErrNeverBlocks) || !strings.HasPrefix(err.Error(), "mpi: rank 1 ") {
					t.Fatalf("got %v, want rank 1's ErrNeverBlocks", err)
				}
				if n := len(pooledCarriers()); n != opts.Procs {
					t.Fatalf("%d carriers pooled, want %d", n, opts.Procs)
				}
			})
		})
	}
}

// TestDrainCarriersOfDirectRuns: a run made only of ranks declared never
// to block pools carriers whose coroutines never started, and draining the
// pool stops only what started.
func TestDrainCarriersOfDirectRuns(t *testing.T) {
	DrainCarriers()
	opts := freeOpts(5)
	opts.NeverBlocks = func(int) bool { return true }
	if err := Run(opts, func(c *Comm) error { c.Charge(1); return nil }); err != nil {
		t.Fatal(err)
	}
	pool := pooledCarriers()
	if len(pool) != opts.Procs || slices.ContainsFunc(pool, func(c *carrier) bool { return c.next != nil }) {
		t.Fatalf("%d carriers pooled, want %d, none with a coroutine", len(pool), opts.Procs)
	}
	DrainCarriers()
	if n := len(pooledCarriers()); n != 0 {
		t.Fatalf("%d carriers pooled after draining", n)
	}
	runRing(t, freeOpts(5))
}
