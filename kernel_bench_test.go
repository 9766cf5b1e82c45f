package ic2mpi_test

// Benchmark guards for the execution kernels. Two kinds of pins live
// here: a memory benchmark for the discrete-event scheduler at scale, and
// a regression guard that holds the exchange path's allocation counts to
// their pinned values on the default kernel — kernel and rank-state work
// must not cost the exchange path anything. Host-time comparisons live in
// bench/ (bash bench/run.sh); BenchmarkKernelCell is only the handle for
// putting one of bench/'s machine cells under -cpuprofile.

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

// exchangeConfig builds the exchange-heavy steady-state workload of the
// pinned-allocation guard: the heat example's 16x16 hex mesh with a cheap
// grain, so shadow packing, messaging and unpacking dominate each
// iteration. It names no buffer setting: the platform's own, recycled
// exchange buffers are what a Config gets.
func exchangeConfig(tb testing.TB, procs int) ic2mpi.Config {
	tb.Helper()
	g, err := ic2mpi.HexGrid(16, 16)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(7).Partition(g, nil, procs)
	if err != nil {
		tb.Fatal(err)
	}
	return ic2mpi.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
		Iterations:       50,
		SkipFinalGather:  true,
	}
}

// Steady-state allocation pins for exchangeConfig at 8 and 16 processors,
// measured with testing.AllocsPerRun under the default kernel name. The
// row names and values are the pooled rows of the pooled-vs-unpooled
// record in docs/benchmarks.md (the allocate-per-round exchange measured
// 17591 and 22798); with that path deleted they are the test that a
// Config which sets nothing runs the recycled buffers. The tolerance
// absorbs runtime scheduling jitter (a handful of allocs per run) while
// still catching any real regression — an exchange that allocates per
// round moves the rows by thousands. The rows read 3076 and 5894 while
// every Isend boxed a slice header; what is left is start-up — rank state,
// each buffer generation's first fill and the engine's per-run arrays —
// and moves with none of the 50 iterations. The overlap
// rows run the same Config under Fig. 8a; they read 3500 and 6753 while
// every round built a request per peer, and sit level with the basic rows
// now that both variants receive through one path. AllocsPerRun holds
// GOMAXPROCS at 1, so the default name runs one worker here on any host.
// With one goroutine and one mutex+cond mailbox per rank the rows read
// 1699, 2455, 1700 and 2453. While each rank was built from per-node
// records, entries and chain links, with a map over its nodes, they read
// 1700, 2405, 1701 and 2404. While every run made each rank's Comm, the
// engine's per-rank arrays and the rank records, they read 95, 134, 95 and
// 134; the Comm and engine state now ride on the rank's pooled carrier and
// the records come from a sync.Pool. While each rank built its own state from a
// few flat arrays after the initial barrier, and made its send buffers
// and neighbour list on first use, they read 416, 837, 417 and 836; the
// ranks are now built in machine-wide arrays before they launch. While
// every run created its rank coroutines they read 191, 326, 191 and 327;
// now AllocsPerRun's warm-up run fills the engine's carrier pool and every
// measured run reuses it. A run takes its carriers before any rank runs,
// and between one run's return and the next run's take only the next
// Config's normalize and rank build allocate, a few KB: far too little
// for the two GC cycles that would empty the pool (about 13 allocations
// per rank, which the tolerance would catch). While each run's workers
// stored messages in a slab of their own, behind a free list and a lane
// per pair of workers, the rows read 53, 56, 53 and 56; a message now
// waits in its receiver's queue, which the pooled carrier keeps. While the
// rank build kept one array per kind, the node-to-processor layout and the
// run's values alike, the rows read 41; the layout (platform.NewLayout,
// built here by each Run, as no Config names one) now cuts its int32
// kinds and its two node lists out of one array each, and has no per-rank
// array.
var exchangeAllocPins = []struct {
	name    string
	procs   int
	overlap bool
	allocs  float64
}{
	{"Pooled8", 8, false, 36},
	{"Pooled16", 16, false, 36},
	{"PooledOverlap8", 8, true, 36},
	{"PooledOverlap16", 16, true, 36},
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
			cfg := exchangeConfig(t, pin.procs)
			cfg.Overlap = pin.overlap
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
