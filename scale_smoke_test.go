package ic2mpi_test

// Scale smoke: the engine parks ranks as passive states so that one host
// can run worlds of thousands of simulated processors. These tests run the paper's
// hex64-fine scenario at 4096 and 16384 simulated procs under the event
// and parallel event kernels — and at 16384 on the fattree and hetgrid
// machines — and assert both completion and a per-rank memory ceiling,
// machine included: the flat-memory property that the degree-sized rank
// bookkeeping and closed-form topologies buy. Skipped with -short; CI
// runs them in a dedicated job.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// peakMemDuring runs fn while a poller samples heap + goroutine-stack
// usage, and returns the peak observed in-use bytes above the pre-run
// baseline. ReadMemStats is a stop-the-world sample, so the poll period
// is deliberately coarse.
func peakMemDuring(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	baseline := base.HeapInuse + base.StackInuse

	var peak atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if used := m.HeapInuse + m.StackInuse; used > peak.Load() {
					peak.Store(used)
				}
			}
		}
	}()
	fn()
	// One final sample so short runs that finish between ticks still count.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if used := m.HeapInuse + m.StackInuse; used > peak.Load() {
		peak.Store(used)
	}
	close(stop)
	wg.Wait()
	if p := peak.Load(); p > baseline {
		return p - baseline
	}
	return 0
}

func TestEventKernelScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the memory ceiling")
	}
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		t.Fatal(err)
	}
	// The ceiling is deliberately generous: the dominant per-rank costs
	// are one suspended goroutine stack (the coroutine carrier the event
	// kernel parks ranks on) plus the O(degree) rank state, together well
	// under 16 KiB on every measured configuration. A regression to
	// O(P) per-rank vectors or per-rank channel mailboxes blows
	// through it by an order of magnitude.
	const perRankCeiling = 32 << 10 // bytes
	type row struct {
		kernel  string
		procs   int
		network string // "" is the scenario's default machine
	}
	rows := []row{
		{"event", 4096, ""}, {"event", 16384, ""},
		{"pevent", 4096, ""}, {"pevent", 16384, ""},
		{"event", 16384, "fattree"}, {"event", 16384, "hetgrid"},
	}
	for _, r := range rows {
		name := fmt.Sprintf("kernel=%s/procs=%d", r.kernel, r.procs)
		if r.network != "" {
			name += "/network=" + r.network
		}
		t.Run(name, func(t *testing.T) {
			// The machine is built inside the measured region, so its
			// memory counts against the per-rank ceiling too.
			var res *platform.Result
			peak := peakMemDuring(func() {
				cfg, err := sc.Config(scenario.Params{
					Procs:      r.procs,
					Kernel:     r.kernel,
					Network:    r.network,
					Iterations: 3,
				})
				if err != nil {
					t.Errorf("config failed: %v", err)
					return
				}
				if res, err = platform.Run(*cfg); err != nil {
					t.Errorf("run failed: %v", err)
				}
			})
			if t.Failed() {
				return
			}
			if res.Elapsed <= 0 {
				t.Errorf("elapsed %v, want > 0", res.Elapsed)
			}
			if len(res.Stats) != r.procs {
				t.Fatalf("stats for %d ranks, want %d", len(res.Stats), r.procs)
			}
			perRank := peak / uint64(r.procs)
			t.Logf("%s peak=%d bytes (%.1f KiB/rank)", name, peak, float64(perRank)/1024)
			if perRank > perRankCeiling {
				t.Errorf("per-rank memory %d bytes exceeds ceiling %d", perRank, perRankCeiling)
			}
		})
	}
}
