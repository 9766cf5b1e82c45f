package ic2mpi_test

// Exchange determinism: the pooled exchange fast path (Config.ReuseBuffers)
// must be a pure host-side optimization. For every workload, processor
// count and communication variant, the virtual timeline and the final node
// data must be bit-identical with the pool on and off — pooling recycles
// memory, it must never change what is computed or when.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ic2mpi"
	"ic2mpi/internal/balance"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
	"ic2mpi/internal/workload"
)

// temp mirrors the heat example's fixed-point temperature NodeData.
type temp int64

// CloneData implements ic2mpi.NodeData.
func (t temp) CloneData() ic2mpi.NodeData { return t }

// SizeBytes implements ic2mpi.NodeData.
func (t temp) SizeBytes() int { return 8 }

// heatConfig reproduces examples/heat: Dirichlet hot/cold corners on a hex
// mesh, every other node relaxing to the mean of its neighbors.
func heatConfig(t *testing.T, procs int) ic2mpi.Config {
	t.Helper()
	g, err := ic2mpi.HexGrid(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := ic2mpi.NodeID(0), ic2mpi.NodeID(g.NumVertices()-1)
	part, err := ic2mpi.NewMetis(7).Partition(g, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	return ic2mpi.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		InitData: func(id ic2mpi.NodeID) ic2mpi.NodeData {
			switch id {
			case hot:
				return temp(1_000_000)
			case cold:
				return temp(-1_000_000)
			default:
				return temp(0)
			}
		},
		Node: func(id ic2mpi.NodeID, iter, sub int, self ic2mpi.NodeData, nbrs []ic2mpi.Neighbor) (ic2mpi.NodeData, float64) {
			if id == hot || id == cold {
				return self, 0.1e-3
			}
			var sum int64
			for _, nb := range nbrs {
				sum += int64(nb.Data.(temp))
			}
			return temp(sum / int64(len(nbrs))), 0.1e-3
		},
		Iterations: 40,
	}
}

// quickstartConfig reproduces examples/quickstart: fine-grained neighbor
// averaging over the paper's 64-node hexagonal grid.
func quickstartConfig(t *testing.T, procs int) ic2mpi.Config {
	t.Helper()
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	return ic2mpi.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
		Iterations:       20,
	}
}

// dynamicConfig adds load balancing and task migration on top of the
// quickstart workload (Fig. 23 imbalance schedule), so pooling is also
// exercised across post-migration buffer-size changes.
func dynamicConfig(t *testing.T, procs int) ic2mpi.Config {
	cfg := quickstartConfig(t, procs)
	cfg.Node = workload.Averaging(workload.Fig23Schedule(64, workload.CoarseGrain, workload.CoarseGrain/100))
	cfg.Iterations = 25
	cfg.Balancer = &balance.CentralizedHeuristic{}
	cfg.BalanceEvery = 5
	return cfg
}

func TestExchangeDeterminism(t *testing.T) {
	workloads := []struct {
		name string
		cfg  func(*testing.T, int) ic2mpi.Config
	}{
		{"heat", heatConfig},
		{"quickstart", quickstartConfig},
		{"dynamic", dynamicConfig},
	}
	for _, wl := range workloads {
		for _, procs := range []int{2, 4, 8} {
			for _, overlap := range []bool{false, true} {
				name := wl.name
				if overlap {
					name += "/overlap"
				} else {
					name += "/basic"
				}
				t.Run(name+"/procs="+string(rune('0'+procs)), func(t *testing.T) {
					base := wl.cfg(t, procs)
					base.Overlap = overlap
					base.CheckInvariants = true

					plain := base
					plain.ReuseBuffers = false
					pooled := base
					pooled.ReuseBuffers = true

					resPlain, err := ic2mpi.Run(plain)
					if err != nil {
						t.Fatalf("unpooled run: %v", err)
					}
					resPooled, err := ic2mpi.Run(pooled)
					if err != nil {
						t.Fatalf("pooled run: %v", err)
					}
					if resPlain.Elapsed != resPooled.Elapsed {
						t.Errorf("virtual time diverged: unpooled %v, pooled %v", resPlain.Elapsed, resPooled.Elapsed)
					}
					if len(resPlain.FinalData) != len(resPooled.FinalData) {
						t.Fatalf("final data length: unpooled %d, pooled %d", len(resPlain.FinalData), len(resPooled.FinalData))
					}
					for v := range resPlain.FinalData {
						if resPlain.FinalData[v] != resPooled.FinalData[v] {
							t.Fatalf("node %d: unpooled %v, pooled %v", v, resPlain.FinalData[v], resPooled.FinalData[v])
						}
					}
					for p := range resPlain.FinalPartition {
						if resPlain.FinalPartition[p] != resPooled.FinalPartition[p] {
							t.Fatalf("node %d partition: unpooled proc %d, pooled proc %d",
								p, resPlain.FinalPartition[p], resPooled.FinalPartition[p])
						}
					}
					if resPlain.Migrations != resPooled.Migrations {
						t.Errorf("migrations diverged: unpooled %d, pooled %d", resPlain.Migrations, resPooled.Migrations)
					}
					// At 2 procs the migration guard filters the Fig. 23
					// imbalance away; from 4 procs up migrations must occur
					// so pooling is exercised across ownership changes.
					if wl.name == "dynamic" && procs >= 4 && resPooled.Migrations == 0 {
						t.Error("dynamic case executed no migrations; pooling not exercised across ownership changes")
					}
					// Both must also match the sequential reference.
					want, err := ic2mpi.RunSequential(pooled)
					if err != nil {
						t.Fatalf("sequential reference: %v", err)
					}
					for v := range want {
						if resPooled.FinalData[v] != want[v] {
							t.Fatalf("node %d: pooled %v, sequential %v", v, resPooled.FinalData[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestExchangeDeterminismNetworks extends the pooling contract over the
// interconnect axis: on every named network model, pooled and unpooled
// runs must produce identical virtual timelines and node data, and the
// node data must match the sequential reference regardless of the
// machine — the interconnect prices time, it never changes what is
// computed.
func TestExchangeDeterminismNetworks(t *testing.T) {
	for _, network := range ic2mpi.NetworkModels() {
		for _, procs := range []int{4, 8} {
			t.Run(network+"/procs="+string(rune('0'+procs)), func(t *testing.T) {
				model, err := ic2mpi.NewNetworkModel(network, procs)
				if err != nil {
					t.Fatal(err)
				}
				base := heatConfig(t, procs)
				base.Network = model
				base.CheckInvariants = true

				plain := base
				plain.ReuseBuffers = false
				pooled := base
				pooled.ReuseBuffers = true

				resPlain, err := ic2mpi.Run(plain)
				if err != nil {
					t.Fatalf("unpooled run: %v", err)
				}
				resPooled, err := ic2mpi.Run(pooled)
				if err != nil {
					t.Fatalf("pooled run: %v", err)
				}
				if resPlain.Elapsed != resPooled.Elapsed {
					t.Errorf("virtual time diverged: unpooled %v, pooled %v", resPlain.Elapsed, resPooled.Elapsed)
				}
				want, err := ic2mpi.RunSequential(pooled)
				if err != nil {
					t.Fatalf("sequential reference: %v", err)
				}
				for v := range want {
					if resPooled.FinalData[v] != want[v] {
						t.Fatalf("node %d: pooled %v, sequential %v", v, resPooled.FinalData[v], want[v])
					}
					if resPlain.FinalData[v] != want[v] {
						t.Fatalf("node %d: unpooled %v, sequential %v", v, resPlain.FinalData[v], want[v])
					}
				}
			})
		}
	}
}

// TestExchangeDeterminismPerturbed extends the pooling contract over
// the fault-injection axis: under every perturbation schedule, pooled
// and unpooled runs must produce identical virtual timelines and node
// data, repeated runs must be bit-identical, and the node data must
// match the sequential reference — perturbation prices time, it never
// changes what is computed.
func TestExchangeDeterminismPerturbed(t *testing.T) {
	for _, spec := range ic2mpi.Perturbations() {
		if spec == "none" {
			continue // the static machine is the baseline suite above
		}
		for _, procs := range []int{4, 8} {
			t.Run(spec+"/procs="+string(rune('0'+procs)), func(t *testing.T) {
				base := heatConfig(t, procs)
				model, err := ic2mpi.NewNetworkModel("hypercube", procs)
				if err != nil {
					t.Fatal(err)
				}
				base.Network, err = ic2mpi.PerturbNetwork(model, spec, procs, base.Iterations)
				if err != nil {
					t.Fatal(err)
				}
				base.CheckInvariants = true

				plain := base
				plain.ReuseBuffers = false
				pooled := base
				pooled.ReuseBuffers = true

				resPlain, err := ic2mpi.Run(plain)
				if err != nil {
					t.Fatalf("unpooled run: %v", err)
				}
				resPooled, err := ic2mpi.Run(pooled)
				if err != nil {
					t.Fatalf("pooled run: %v", err)
				}
				if resPlain.Elapsed != resPooled.Elapsed {
					t.Errorf("virtual time diverged: unpooled %v, pooled %v", resPlain.Elapsed, resPooled.Elapsed)
				}
				again, err := ic2mpi.Run(pooled)
				if err != nil {
					t.Fatalf("repeat run: %v", err)
				}
				if resPooled.Elapsed != again.Elapsed {
					t.Errorf("perturbed run not repeatable: %v vs %v", resPooled.Elapsed, again.Elapsed)
				}
				// The perturbation must actually touch the timeline relative
				// to the static machine, or the schedule is a no-op. CPU
				// schedules stretch elapsed time; pure link degradation on a
				// statically partitioned run can be absorbed into bottleneck
				// slack (see the interconnect note in architecture.md), so
				// for it a shift in some processor's idle time suffices.
				static := base
				static.Network = model
				static.ReuseBuffers = true
				resStatic, err := ic2mpi.Run(static)
				if err != nil {
					t.Fatalf("static run: %v", err)
				}
				if resPooled.Elapsed < resStatic.Elapsed {
					t.Errorf("perturbed elapsed %v faster than static %v", resPooled.Elapsed, resStatic.Elapsed)
				}
				touched := resPooled.Elapsed > resStatic.Elapsed
				for p := range resPooled.Stats {
					if resPooled.Stats[p].IdleSeconds != resStatic.Stats[p].IdleSeconds {
						touched = true
					}
				}
				if !touched {
					t.Errorf("schedule %s left the timeline identical to the static machine", spec)
				}
				want, err := ic2mpi.RunSequential(pooled)
				if err != nil {
					t.Fatalf("sequential reference: %v", err)
				}
				for v := range want {
					if resPooled.FinalData[v] != want[v] {
						t.Fatalf("node %d: pooled %v, sequential %v", v, resPooled.FinalData[v], want[v])
					}
					if resPlain.FinalData[v] != want[v] {
						t.Fatalf("node %d: unpooled %v, sequential %v", v, resPlain.FinalData[v], want[v])
					}
				}
			})
		}
	}
}

// TestExchangeDeterminismSubPhases covers the multi-sub-phase exchange
// (battlefield-style SubPhases=2), where the parity-indexed pool must keep
// sub-phase rounds from cross-matching.
func TestExchangeDeterminismSubPhases(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		cfg := quickstartConfig(t, procs)
		cfg.SubPhases = 2
		cfg.CheckInvariants = true

		plain := cfg
		plain.ReuseBuffers = false
		pooled := cfg
		pooled.ReuseBuffers = true

		resPlain, err := ic2mpi.Run(plain)
		if err != nil {
			t.Fatalf("procs=%d unpooled: %v", procs, err)
		}
		resPooled, err := ic2mpi.Run(pooled)
		if err != nil {
			t.Fatalf("procs=%d pooled: %v", procs, err)
		}
		if resPlain.Elapsed != resPooled.Elapsed {
			t.Errorf("procs=%d: virtual time diverged: unpooled %v, pooled %v", procs, resPlain.Elapsed, resPooled.Elapsed)
		}
		for v := range resPlain.FinalData {
			if resPlain.FinalData[v] != resPooled.FinalData[v] {
				t.Fatalf("procs=%d node %d: unpooled %v, pooled %v", procs, v, resPlain.FinalData[v], resPooled.FinalData[v])
			}
		}
	}
}

// TestKernelEquivalence is the differential harness for the event-driven
// simulation kernels: for every registered scenario, across processor
// counts, interconnect models and fault injection, the event kernel and
// the parallel event kernel (at several worker counts, including worker
// layouts that split the rank space) must reproduce the goroutine
// kernel's run bit for bit — virtual time, message counters, phase
// breakdown, migrations, and the per-iteration trace JSONL, byte for
// byte. The two engines share no scheduling machinery (goroutines +
// mailboxes vs priority queues over passive rank states, on one worker
// or sharded across several), so agreement here is evidence the
// virtual timeline is a pure function of the simulated program, not of
// the engine executing it.
func TestKernelEquivalence(t *testing.T) {
	const iterations = 6
	networks := []string{"uniform", "hypercube", "mesh2d"}
	perturbs := []string{"none", "brownout"}
	// Every registered balancing strategy is rotated through the grid —
	// one per (procs, network, perturb) cell, deterministically — so the
	// rank-0 planning of all of them (including the history-fed predictive
	// balancer) is proven engine-independent without multiplying runtime.
	balancers := scenario.Balancers()
	balancerFor := func(procs int, network, perturb string) string {
		h := procs + 3*len(network) + 5*len(perturb)
		return balancers[h%len(balancers)]
	}
	type kernelCfg struct {
		name    string
		kernel  string
		workers int
	}
	kernels := []kernelCfg{
		{"event", "event", 0}, // pevent at one worker
		{"pevent-w2", "pevent", 2},
		{"pevent-w8", "pevent", 8},
	}
	for _, sc := range scenario.List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, procs := range []int{2, 4, 8, 16} {
				for _, network := range networks {
					for _, perturb := range perturbs {
						if sc.Runner != nil && perturb != fault.NameNone {
							continue // custom runners do not support perturbation
						}
						base := scenario.Params{
							Procs:      procs,
							Network:    network,
							Perturb:    perturb,
							Iterations: iterations,
						}
						if sc.Runner == nil {
							// Custom runners drive the platform directly and
							// ignore the balancer axis; everything else gets a
							// rotated balancer and a period short enough to
							// actually plan within the iteration budget.
							base.Balancer = balancerFor(procs, network, perturb)
							base.BalanceEvery = 2
						}
						label := fmt.Sprintf("procs=%d network=%s perturb=%s balancer=%s", procs, network, perturb, base.Balancer)

						run := func(kernel string, workers int) (*scenario.Result, []byte) {
							p := base
							p.Kernel = kernel
							p.KernelWorkers = workers
							p.Trace = &trace.Recorder{}
							res, err := sc.Run(p)
							if err != nil {
								t.Fatalf("%s kernel=%s workers=%d: %v", label, kernel, workers, err)
							}
							var buf bytes.Buffer
							if err := trace.WriteJSONL(&buf, p.Trace); err != nil {
								t.Fatalf("%s kernel=%s workers=%d: encode trace: %v", label, kernel, workers, err)
							}
							return res, buf.Bytes()
						}
						gRes, gTrace := run("goroutine", 0)
						for _, kc := range kernels {
							eRes, eTrace := run(kc.kernel, kc.workers)

							if gRes.Elapsed != eRes.Elapsed {
								t.Errorf("%s: Elapsed goroutine %v != %s %v", label, gRes.Elapsed, kc.name, eRes.Elapsed)
							}
							if gRes.EdgeCut != eRes.EdgeCut || gRes.Imbalance != eRes.Imbalance {
								t.Errorf("%s %s: partition quality diverged", label, kc.name)
							}
							if gRes.Migrations != eRes.Migrations {
								t.Errorf("%s: Migrations goroutine %d != %s %d", label, gRes.Migrations, kc.name, eRes.Migrations)
							}
							if gRes.MessagesSent != eRes.MessagesSent || gRes.BytesSent != eRes.BytesSent {
								t.Errorf("%s: message counters diverged: goroutine %d msgs/%d bytes, %s %d msgs/%d bytes",
									label, gRes.MessagesSent, gRes.BytesSent, kc.name, eRes.MessagesSent, eRes.BytesSent)
							}
							if !reflect.DeepEqual(gRes.Phases, eRes.Phases) {
								t.Errorf("%s: phase breakdown diverged:\ngoroutine %v\n%-9s %v", label, gRes.Phases, kc.name, eRes.Phases)
							}
							if !bytes.Equal(gTrace, eTrace) {
								t.Errorf("%s: trace JSONL diverged vs %s (%d vs %d bytes)", label, kc.name, len(gTrace), len(eTrace))
							}
						}
					}
				}
			}
		})
	}
}
