package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"ic2mpi/internal/netmodel"
)

func virtualOpts(procs int) Options {
	return Options{Procs: procs, Cost: netmodel.NewUniform(netmodel.Origin2000())}
}

func freeOpts(procs int) Options {
	return Options{Procs: procs, Cost: netmodel.Free()}
}

func TestRunRejectsZeroProcs(t *testing.T) {
	if err := Run(Options{Procs: 0}, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("expected error for Procs=0")
	}
}

func TestRunRejectsNegativeCostModel(t *testing.T) {
	opts := Options{Procs: 1, Cost: netmodel.NewUniform(netmodel.LogGP{Latency: -1})}
	if err := Run(opts, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("expected error for negative latency")
	}
}

func TestRankAndSize(t *testing.T) {
	const n = 7
	var mu sync.Mutex
	seen := map[int]bool{}
	err := Run(freeOpts(n), func(c *Comm) error {
		if c.Size() != n {
			return fmt.Errorf("size = %d, want %d", c.Size(), n)
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct ranks, want %d", len(seen), n)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Isend(1, 5, "hello", 5); err != nil {
				return err
			}
			p, err := c.Recv(1, 6)
			if err != nil {
				return err
			}
			if p.(string) != "world" {
				return fmt.Errorf("got %v", p)
			}
			return nil
		}
		p, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if p.(string) != "hello" {
			return fmt.Errorf("got %v", p)
		}
		return c.Isend(0, 6, "world", 5)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTagFIFO(t *testing.T) {
	// Messages with distinct tags must be claimable out of arrival order;
	// messages with the same tag must arrive FIFO.
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := c.Isend(1, 1, fmt.Sprintf("a%d", i), 2); err != nil {
					return err
				}
			}
			return c.Isend(1, 2, "b", 1)
		}
		// Claim tag 2 first even though it was sent last.
		p, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if p.(string) != "b" {
			return fmt.Errorf("tag 2 got %v", p)
		}
		for i := 0; i < 3; i++ {
			p, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("a%d", i); p.(string) != want {
				return fmt.Errorf("tag 1 msg %d: got %v want %s", i, p, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnyTag(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(1, 42, 99, 8)
		}
		p, err := c.Recv(0, AnyTag)
		if err != nil {
			return err
		}
		if p.(int) != 99 {
			return fmt.Errorf("got %v", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Isend(2, 0, nil, 0); err == nil {
			return errors.New("expected error sending to rank 2 in a 2-rank world")
		}
		if err := c.Isend(-1, 0, nil, 0); err == nil {
			return errors.New("expected error sending to rank -1")
		}
		if err := c.Isend(0, 0, nil, -1); err == nil {
			return errors.New("expected error for negative byte count")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvInvalidRank(t *testing.T) {
	err := Run(freeOpts(1), func(c *Comm) error {
		if _, err := c.Recv(5, 0); err == nil {
			return errors.New("expected error receiving from invalid rank")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockMessageTiming(t *testing.T) {
	cost := netmodel.NewUniform(netmodel.LogGP{Latency: 1e-3, ByteTime: 1e-6, SendOverhead: 1e-4, RecvOverhead: 1e-4})
	opts := Options{Procs: 2, Cost: cost}
	err := Run(opts, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Charge(0.5)
			return c.Isend(1, 0, "x", 1000)
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		// Receiver idled at t=0; message sent at 0.5, +send overhead 1e-4,
		// +latency 1e-3, +1000 bytes * 1e-6 = 1e-3, then recv overhead 1e-4.
		want := 0.5 + 1e-4 + 1e-3 + 1e-3 + 1e-4
		if got := c.Wtime(); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("receiver Wtime = %.9f, want %.9f", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockLateReceiverNotDelayed(t *testing.T) {
	// If the receiver is already past the arrival time, Recv must not move
	// its clock backwards and only charges the receive overhead.
	cost := netmodel.NewUniform(netmodel.LogGP{Latency: 1e-3, RecvOverhead: 1e-4})
	err := Run(Options{Procs: 2, Cost: cost}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(1, 0, "x", 0)
		}
		c.Charge(2.0)
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		want := 2.0 + 1e-4
		if got := c.Wtime(); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("Wtime = %.9f, want %.9f", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	const n = 5
	times := make([]float64, n)
	err := Run(freeOpts(n), func(c *Comm) error {
		c.Charge(float64(c.Rank()) * 0.25)
		if err := c.Barrier(); err != nil {
			return err
		}
		times[c.Rank()] = c.Wtime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) * 0.25
	for r, got := range times {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d left barrier at %.6f, want %.6f", r, got, want)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	const n, rounds = 4, 50
	err := Run(freeOpts(n), func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			c.Charge(float64((c.Rank()+i)%n) * 1e-3)
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16} {
		for root := 0; root < n; root += maxInt(1, n/3) {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				got := make([]int, n)
				err := Run(freeOpts(n), func(c *Comm) error {
					var payload any
					if c.Rank() == root {
						payload = 12345
					}
					v, err := c.Bcast(root, payload, 8)
					if err != nil {
						return err
					}
					got[c.Rank()] = v.(int)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, v := range got {
					if v != 12345 {
						t.Errorf("rank %d got %d", r, v)
					}
				}
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if _, err := c.Bcast(7, nil, 0); err == nil {
			return errors.New("expected invalid-root error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const n = 6
	err := Run(freeOpts(n), func(c *Comm) error {
		out, err := c.Gather(2, c.Rank()*10, 8)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got %v", out)
			}
			return nil
		}
		for r, v := range out {
			if v.(int) != r*10 {
				return fmt.Errorf("root slot %d = %v", r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 5
	err := Run(freeOpts(n), func(c *Comm) error {
		out, err := c.Allgather(c.Rank()+100, 8)
		if err != nil {
			return err
		}
		for r, v := range out {
			if v.(int) != r+100 {
				return fmt.Errorf("rank %d slot %d = %v", c.Rank(), r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherFloat64AndInts(t *testing.T) {
	const n = 4
	err := Run(freeOpts(n), func(c *Comm) error {
		fs, err := c.GatherFloat64(0, float64(c.Rank())*1.5)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, v := range fs {
				if v != float64(r)*1.5 {
					return fmt.Errorf("float slot %d = %v", r, v)
				}
			}
		}
		is, err := c.Gather(0, []int{c.Rank(), c.Rank() * 2}, 16)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, v := range is {
				if v := v.([]int); v[0] != r || v[1] != 2*r {
					return fmt.Errorf("int slot %d = %v", r, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastInts(t *testing.T) {
	const n = 3
	err := Run(freeOpts(n), func(c *Comm) error {
		var xs []int
		if c.Rank() == 1 {
			xs = []int{7, 8, 9}
		}
		got, err := c.BcastInts(1, xs)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 7 || got[2] != 9 {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWaitOverlap(t *testing.T) {
	cost := netmodel.NewUniform(netmodel.LogGP{Latency: 1e-3})
	err := Run(Options{Procs: 2, Cost: cost}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(1, 0, 1, 0)
		}
		c.Charge(0.5) // overlapped computation hides the latency
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		if got := c.Wtime(); math.Abs(got-0.5) > 1e-12 {
			return fmt.Errorf("overlapped Wtime = %v, want 0.5", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Isend(1, 0, "abc", 3); err != nil {
				return err
			}
			s := c.Stats()
			if s.MessagesSent != 1 || s.BytesSent != 3 {
				return fmt.Errorf("sender stats %+v", s)
			}
			return nil
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		s := c.Stats()
		if s.MessagesReceived != 1 || s.BytesReceived != 3 {
			return fmt.Errorf("receiver stats %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(freeOpts(3), func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Other ranks block in Recv; the failure must unwind them.
		_, err := c.Recv((c.Rank()+1)%3, 9)
		return err
	})
	if !errors.Is(err, sentinel) || err.Error() != "mpi: rank 1: boom" {
		t.Fatalf("got error %v, want the failing rank's error", err)
	}
}

func TestPanicConvertedToError(t *testing.T) {
	err := Run(freeOpts(2), func(c *Comm) error {
		if c.Rank() == 0 {
			panic("deliberate")
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err == nil || err.Error() != "mpi: rank 0 panicked: deliberate" {
		t.Fatalf("got error %v, want the panic surfaced as an error", err)
	}
}

func TestDeterministicVirtualTimeline(t *testing.T) {
	// The same SPMD program must produce bit-identical virtual end times
	// across repeated executions, regardless of goroutine scheduling.
	run := func() []float64 {
		const n = 8
		out := make([]float64, n)
		err := Run(virtualOpts(n), func(c *Comm) error {
			for iter := 0; iter < 10; iter++ {
				c.Charge(float64(c.Rank()+1) * 1e-4)
				right := (c.Rank() + 1) % n
				left := (c.Rank() + n - 1) % n
				if err := c.Isend(right, iter, c.Rank(), 64); err != nil {
					return err
				}
				if _, err := c.Recv(left, iter); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			out[c.Rank()] = c.Wtime()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run()
	for trial := 0; trial < 5; trial++ {
		b := run()
		for r := range a {
			if a[r] != b[r] {
				t.Fatalf("trial %d rank %d: %v != %v (nondeterministic timeline)", trial, r, b[r], a[r])
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
