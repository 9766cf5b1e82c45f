package bsp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
)

func free(procs int) mpi.Options {
	return mpi.Options{Procs: procs, Cost: netmodel.Free()}
}

func TestRunValidation(t *testing.T) {
	if err := Run(mpi.Options{Procs: 0}, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("Procs=0 accepted")
	}
}

func TestPidAndNProcs(t *testing.T) {
	const n = 5
	err := Run(free(n), func(p *Proc) error {
		if p.NProcs() != n || p.Pid() < 0 || p.Pid() >= n {
			return fmt.Errorf("pid=%d nprocs=%d", p.Pid(), p.NProcs())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutValidation(t *testing.T) {
	err := Run(free(2), func(p *Proc) error {
		if err := p.Put(5, 0, nil, 0); err == nil {
			return errors.New("invalid destination accepted")
		}
		if err := p.Put(0, 0, nil, -1); err == nil {
			return errors.New("negative bytes accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSupersteppedShift(t *testing.T) {
	// Each process repeatedly forwards a token to its right neighbor;
	// after NProcs supersteps every token is home again.
	const n = 6
	err := Run(free(n), func(p *Proc) error {
		token := p.Pid() * 100
		for step := 0; step < n; step++ {
			if err := p.Put((p.Pid()+1)%n, 1, token, 8); err != nil {
				return err
			}
			in, err := p.Sync()
			if err != nil {
				return err
			}
			if len(in) != 1 {
				return fmt.Errorf("step %d: got %d messages", step, len(in))
			}
			token = in[0].Payload.(int)
		}
		if token != p.Pid()*100 {
			return fmt.Errorf("token %d did not come home to %d", token, p.Pid())
		}
		if p.Step() != n {
			return fmt.Errorf("step counter %d, want %d", p.Step(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalExchangeSorted(t *testing.T) {
	// All-to-all in one superstep; inbox must be sorted by source.
	const n = 4
	err := Run(free(n), func(p *Proc) error {
		for dst := 0; dst < n; dst++ {
			if dst == p.Pid() {
				continue
			}
			if err := p.Put(dst, 7, p.Pid(), 8); err != nil {
				return err
			}
		}
		in, err := p.Sync()
		if err != nil {
			return err
		}
		if len(in) != n-1 {
			return fmt.Errorf("got %d messages, want %d", len(in), n-1)
		}
		for i := 1; i < len(in); i++ {
			if in[i-1].Src > in[i].Src {
				return fmt.Errorf("inbox not sorted: %v", in)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleMessagesPreserveOrder(t *testing.T) {
	err := Run(free(2), func(p *Proc) error {
		if p.Pid() == 0 {
			for i := 0; i < 5; i++ {
				if err := p.Put(1, i, i, 8); err != nil {
					return err
				}
			}
		}
		in, err := p.Sync()
		if err != nil {
			return err
		}
		if p.Pid() == 1 {
			if len(in) != 5 {
				return fmt.Errorf("got %d messages", len(in))
			}
			for i, m := range in {
				if m.Tag != i || m.Payload.(int) != i {
					return fmt.Errorf("message %d out of order: %+v", i, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptySupersteps(t *testing.T) {
	err := Run(free(3), func(p *Proc) error {
		for i := 0; i < 4; i++ {
			in, err := p.Sync()
			if err != nil {
				return err
			}
			if len(in) != 0 {
				return fmt.Errorf("phantom messages %v", in)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBSPCostModel(t *testing.T) {
	// With a pure-latency cost model, a superstep's end time is the max
	// participant compute time plus communication — the w_max + g·h + L
	// shape of BSP.
	cost := netmodel.NewUniform(netmodel.LogGP{Latency: 1e-3})
	opts := mpi.Options{Procs: 4, Cost: cost}
	times := make([]float64, 4)
	err := Run(opts, func(p *Proc) error {
		p.Charge(float64(p.Pid()+1) * 0.01) // heterogeneous w
		if err := p.Put((p.Pid()+1)%4, 0, 1, 0); err != nil {
			return err
		}
		if _, err := p.Sync(); err != nil {
			return err
		}
		times[p.Pid()] = p.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier equalizes: everyone leaves at the same time, at least
	// w_max = 0.04.
	for pid, tm := range times {
		if tm != times[0] {
			t.Fatalf("process %d left superstep at %v, others at %v", pid, tm, times[0])
		}
	}
	if times[0] < 0.04 {
		t.Fatalf("superstep ended at %v, before w_max", times[0])
	}
}

func TestBSPPrefixSums(t *testing.T) {
	// Logarithmic parallel prefix: a standard BSP kernel.
	const n = 8
	results := make([]int, n)
	err := Run(free(n), func(p *Proc) error {
		val := p.Pid() + 1
		sum := val
		for dist := 1; dist < n; dist <<= 1 {
			if p.Pid()+dist < n {
				if err := p.Put(p.Pid()+dist, 0, sum, 8); err != nil {
					return err
				}
			}
			in, err := p.Sync()
			if err != nil {
				return err
			}
			for _, m := range in {
				sum += m.Payload.(int)
			}
		}
		results[p.Pid()] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		want := (i + 1) * (i + 2) / 2
		if got != want {
			t.Fatalf("prefix[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestErrorPropagates(t *testing.T) {
	sentinel := errors.New("bsp boom")
	err := Run(free(3), func(p *Proc) error {
		if p.Pid() == 1 {
			return sentinel
		}
		_, err := p.Sync()
		return err
	})
	if err == nil {
		t.Fatal("expected propagated error")
	}
}

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

// TestStopEndsSyncAtSuperstep: process 0 closes Options.Stop in superstep
// 3 of a ring program. Under every kernel name at one and at three
// workers the run fails with mpi.ErrStopped and process 0 starts no later
// superstep: its Sync returns the error without exchanging anything.
// Processes far from it may have run ahead, so theirs are not pinned.
// Once the pool is drained no engine goroutine is left.
func TestStopEndsSyncAtSuperstep(t *testing.T) {
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
				opts := free(6)
				opts.Kernel, opts.Workers, opts.Stop = kernel, workers, stop
				started := 0 // supersteps process 0 started
				err := Run(opts, func(p *Proc) error {
					for step := 1; step <= 10; step++ {
						if p.Pid() == 0 {
							started = step
							if step == 3 {
								close(stop)
							}
						}
						if err := p.Put((p.Pid()+1)%p.NProcs(), 1, step, 8); err != nil {
							return err
						}
						if _, err := p.Sync(); err != nil {
							return err
						}
					}
					return nil
				})
				if !errors.Is(err, mpi.ErrStopped) {
					t.Fatalf("got %v, want an error that is mpi.ErrStopped", err)
				}
				if started != 3 {
					t.Errorf("process 0 started superstep %d last, want 3", started)
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
