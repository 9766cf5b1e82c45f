package platform

import (
	"strings"
	"testing"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/topology"
)

// Tests for the interconnect plug-in (Config.Network): heterogeneous
// speeds slow computation, link costs slow communication, and results stay
// correct either way.

// overNet wraps a processor network graph with the Origin 2000 base costs.
func overNet(t *testing.T, net *topology.Network) netmodel.Model {
	t.Helper()
	m, err := netmodel.NewTopology(net, netmodel.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNetworkSpeedSlowsComputation(t *testing.T) {
	g := hexGrid(t, 4, 8)
	base := baseConfig(g, 2)

	uniform, err := topology.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := topology.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	slow.Speed[1] = 4.0 // processor 1 runs 4x slower

	base.Network = overNet(t, uniform)
	fast := assertMatchesSequential(t, base)

	base.Network = overNet(t, slow)
	slowed := assertMatchesSequential(t, base)

	if slowed.Elapsed <= fast.Elapsed {
		t.Fatalf("heterogeneous run %.4f not slower than homogeneous %.4f", slowed.Elapsed, fast.Elapsed)
	}
	// The slow processor's compute phase must be larger than the fast
	// one's (they own equal halves).
	if slowed.PhaseTimes[PhaseCompute][1] <= slowed.PhaseTimes[PhaseCompute][0]*2 {
		t.Fatalf("speed 4.0 processor compute %.4f vs %.4f: scaling not applied",
			slowed.PhaseTimes[PhaseCompute][1], slowed.PhaseTimes[PhaseCompute][0])
	}
}

func TestNetworkCostlyLinksSlowCommunication(t *testing.T) {
	g := hexGrid(t, 4, 8)
	base := baseConfig(g, 4)

	cheap, err := topology.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	base.Network = overNet(t, cheap)
	near := assertMatchesSequential(t, base)

	expensive, err := topology.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	expensive.Link = func(p, q int) float64 { return 20 }
	base.Network = overNet(t, expensive)
	far := assertMatchesSequential(t, base)

	if far.Elapsed <= near.Elapsed {
		t.Fatalf("20x links %.4f not slower than 1x links %.4f", far.Elapsed, near.Elapsed)
	}
}

// TestNetworkUniformModelMatchesUnitTopology pins the uniform model
// against the topology model: a fully connected unit-cost network is the
// same machine as the flat model, so both runs must produce bit-identical
// timelines.
func TestNetworkUniformModelMatchesUnitTopology(t *testing.T) {
	g := hexGrid(t, 4, 8)
	cfg := baseConfig(g, 4)

	cfg.Network = netmodel.NewUniform(netmodel.Origin2000())
	flat := assertMatchesSequential(t, cfg)

	unit, err := topology.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = overNet(t, unit)
	viaTopology := assertMatchesSequential(t, cfg)

	if flat.Elapsed != viaTopology.Elapsed {
		t.Fatalf("uniform model %.9f != unit topology %.9f", flat.Elapsed, viaTopology.Elapsed)
	}
}

func TestNetworkValidation(t *testing.T) {
	g := hexGrid(t, 2, 2)
	cfg := baseConfig(g, 2)
	small, err := topology.Uniform(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = overNet(t, small)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "processors") {
		t.Fatalf("undersized network accepted: %v", err)
	}
	bad, err := topology.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	bad.Speed[0] = -1
	cfg.Network = netmodel.Topology{Base: netmodel.Origin2000(), Net: bad}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestNetworkHypercubeMatchesSequential(t *testing.T) {
	g := hexGrid(t, 8, 8)
	cfg := baseConfig(g, 8)
	net, err := netmodel.New(netmodel.NameHypercube, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	cfg.Balancer = thresholdBalancer{}
	cfg.Iterations = 12
	cfg.BalanceEvery = 4
	assertMatchesSequential(t, cfg)
}

// TestNetworkModelsMatchSequential runs every named interconnect through
// the full platform and verifies final node data still matches the
// sequential reference: the machine changes the timeline, never the
// computation.
func TestNetworkModelsMatchSequential(t *testing.T) {
	for _, name := range netmodel.Names() {
		g := hexGrid(t, 4, 8)
		cfg := baseConfig(g, 4)
		m, err := netmodel.New(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Network = m
		assertMatchesSequential(t, cfg)
	}
}
