package ic2mpi_test

// Benchmark guards for the execution kernels. Two kinds of pins live
// here: a memory benchmark for the discrete-event scheduler at scale, and
// a regression guard that holds the BenchmarkExchange* allocation counts
// documented in docs/benchmarks.md to their pinned values on the default
// kernel — kernel and rank-state work must not cost the exchange path
// anything. Host-time comparisons of the kernels are bench/'s
// mpi.rank_iters_per_s.* rows; BenchmarkKernelCell is only the handle
// for putting one of bench/'s machine cells under -cpuprofile.

import (
	"testing"

	"ic2mpi"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/workload"
)

// BenchmarkKernelCell runs bench/'s two machine cells (bench/inputs.go:
// sparse is hex64-fine on 4096 ranks x 10 iterations; dense a 64x64 hex
// grid on 256 busy ranks x 20 iterations, metis, hypercube) once per op
// under one kernel, so that a profile holds one kernel's work and nothing
// else — the recipe behind docs/benchmarks.md's attribution:
//
//	go test -run '^$' -bench 'BenchmarkKernelCell/dense/event' -benchtime 40x -cpuprofile cpu.prof .
func BenchmarkKernelCell(b *testing.B) {
	sparse, err := scenario.Get("hex64-fine")
	if err != nil {
		b.Fatal(err)
	}
	dense := scenario.Scenario{
		Name:     "hex4096-fine",
		Graph:    func() (*graph.Graph, error) { return graph.HexGrid(64, 64) },
		InitData: workload.InitID,
		Node: func(*graph.Graph) platform.NodeFunc {
			return workload.Averaging(workload.UniformGrain(workload.FineGrain))
		},
	}
	for _, cell := range []struct {
		name   string
		sc     scenario.Scenario
		params scenario.Params
	}{
		{"sparse", sparse, scenario.Params{Procs: 4096, Iterations: 10}},
		{"dense", dense, scenario.Params{Procs: 256, Iterations: 20, Partitioner: "metis", Network: "hypercube"}},
	} {
		for _, kernel := range mpi.KernelNames() {
			b.Run(cell.name+"/"+kernel, func(b *testing.B) {
				p := cell.params
				p.Kernel = kernel
				for i := 0; i < b.N; i++ {
					if _, err := cell.sc.Run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelMemoryPerRank reports the peak host memory per
// simulated rank while the event engine, under each of its names, runs
// hex64-fine at 8192 procs — the flat-memory property the scale smoke
// test asserts a hard ceiling on. The custom peak-bytes/rank metric is the number to watch; the
// standard B/op column only counts cumulative allocation.
func BenchmarkKernelMemoryPerRank(b *testing.B) {
	const procs = 8192
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		b.Fatal(err)
	}
	for _, kernel := range []string{"event", "pevent"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			cfg, err := sc.Config(scenario.Params{Procs: procs, Kernel: kernel, Iterations: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var peakPerRank float64
			for i := 0; i < b.N; i++ {
				peak := peakMemDuring(func() {
					if _, err := platform.Run(*cfg); err != nil {
						b.Fatal(err)
					}
				})
				if v := float64(peak) / procs; v > peakPerRank {
					peakPerRank = v
				}
			}
			b.ReportMetric(peakPerRank, "peak-bytes/rank")
		})
	}
}

// Steady-state allocation pins for the four BenchmarkExchange*
// configurations, measured with testing.AllocsPerRun on the default
// goroutine kernel. docs/benchmarks.md documents the first-run values
// (17609 / 3076 / 22814 / 5894 at -benchtime 1x); once one-time lazy
// initialization is amortized the steady state settles a few allocations
// lower for the unpooled rows. The tolerance absorbs runtime scheduling
// jitter (a handful of allocs per run) while still catching any real
// regression — losing buffer pooling alone moves the pooled rows by
// thousands.
var exchangeAllocPins = []struct {
	name   string
	procs  int
	reuse  bool
	allocs float64
}{
	{"Unpooled8", 8, false, 17591},
	{"Pooled8", 8, true, 3076},
	{"Unpooled16", 16, false, 22798},
	{"Pooled16", 16, true, 5894},
}

func TestExchangeAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pins skipped with -short")
	}
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	for _, pin := range exchangeAllocPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			cfg := exchangeConfig(t, pin.procs, pin.reuse)
			got := testing.AllocsPerRun(5, func() {
				if _, err := ic2mpi.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			tol := pin.allocs * 0.02
			if diff := got - pin.allocs; diff > tol || diff < -tol {
				t.Errorf("allocs/run = %.0f, pinned %.0f (±%.0f); exchange allocation behavior changed",
					got, pin.allocs, tol)
			}
		})
	}
}
