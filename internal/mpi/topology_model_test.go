package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/topology"
)

// scaledNet returns a procs-processor network whose every link costs scale.
func scaledNet(t *testing.T, procs int, scale float64) *topology.Network {
	t.Helper()
	net, err := topology.Uniform(procs)
	if err != nil {
		t.Fatal(err)
	}
	net.Link = func(p, q int) float64 { return scale }
	return net
}

func TestTopologyModelMultipliesWireCost(t *testing.T) {
	model, err := netmodel.NewTopology(scaledNet(t, 2, 3), netmodel.LogGP{Latency: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 2, Cost: model}
	err = Run(opts, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(1, 0, "x", 0)
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		want := 3e-3 // three-hop latency
		if got := c.Wtime(); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("Wtime = %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopologyModelZeroCostLinkIgnored(t *testing.T) {
	model, err := netmodel.NewTopology(scaledNet(t, 2, 0), netmodel.LogGP{Latency: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 2, Cost: model}
	err = Run(opts, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(1, 0, "x", 0)
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		// Non-positive link cost falls back to the unscaled wire cost.
		if got := c.Wtime(); math.Abs(got-1e-3) > 1e-12 {
			return fmt.Errorf("Wtime = %v, want 1e-3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopologyModelDistinctPairs(t *testing.T) {
	// Distinct per-pair link costs must be honored independently.
	net, err := topology.Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	net.Link = func(p, q int) float64 { return float64(max(p, q)) } // 0-1 costs 1, 0-2 and 1-2 cost 2
	model, err := netmodel.NewTopology(net, netmodel.LogGP{Latency: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 3, Cost: model}
	err = Run(opts, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Isend(1, 0, nil, 0); err != nil {
				return err
			}
			return c.Isend(2, 0, nil, 0)
		case 1:
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
			if got := c.Wtime(); math.Abs(got-1e-3) > 1e-12 {
				return fmt.Errorf("rank 1 Wtime = %v, want 1e-3", got)
			}
		case 2:
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
			// Rank 0 sends to 1 first then 2, both Isends are free of
			// overheads here, so arrival = 2 * latency.
			if got := c.Wtime(); math.Abs(got-2e-3) > 1e-12 {
				return fmt.Errorf("rank 2 Wtime = %v, want 2e-3", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUniformModelMatchesUnitTopology states the float-association promise
// once at the runtime's level: the flat model and a fully connected
// unit-cost topology are one machine, so the same two-rank exchange ends
// on the same clocks and Stats, bit for bit, under every kernel name.
func TestUniformModelMatchesUnitTopology(t *testing.T) {
	base := netmodel.Origin2000()
	net, err := topology.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := netmodel.NewTopology(net, base)
	if err != nil {
		t.Fatal(err)
	}
	exchange := func(c *Comm) error {
		peer := 1 - c.Rank()
		for round := 0; round < 16; round++ {
			c.Charge(float64(3*round+c.Rank()+1) / 7e5)
			if err := c.Isend(peer, round, nil, 1000*round+7); err != nil {
				return err
			}
			if _, err := c.Recv(peer, round); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	flat := runAllKernels(t, Options{Procs: 2, Cost: netmodel.NewUniform(base)}, exchange)
	checkKernelsAgree(t, "uniform", flat)
	unit := runAllKernels(t, Options{Procs: 2, Cost: topo}, exchange)
	for name, got := range unit {
		for r, snap := range got {
			if want := flat["event"][r]; snap != want {
				t.Errorf("%s rank %d: unit topology %+v, uniform %+v", name, r, snap, want)
			}
			if snap.Time == 0 || snap.Stats.IdleSeconds == 0 {
				t.Errorf("%s rank %d: exchange priced nothing: %+v", name, r, snap)
			}
		}
	}
}

// TestHypercubeModelMatchesHammingDistance drives the named hypercube
// machine end to end through the runtime: a message between ranks three
// bit-flips apart pays three times the wire latency.
func TestHypercubeModelMatchesHammingDistance(t *testing.T) {
	net, err := topology.Hypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netmodel.NewTopology(net, netmodel.LogGP{Latency: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(Options{Procs: 8, Cost: model}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Isend(7, 0, nil, 0) // 0 -> 7 is Hamming distance 3
		}
		if c.Rank() != 7 {
			return nil
		}
		if _, err := c.Recv(0, 0); err != nil {
			return err
		}
		if got, want := c.Wtime(), 3e-3; math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("Wtime = %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressRandomTraffic exercises the runtime with a seeded random
// communication pattern: every rank sends a deterministic pseudo-random
// set of messages; the matching receives verify payload integrity and the
// run must terminate without deadlock.
func TestStressRandomTraffic(t *testing.T) {
	const procs = 9
	const rounds = 30
	err := Run(Options{Procs: procs, Cost: netmodel.Free()}, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			// Deterministic plan shared by all ranks: sender s sends to
			// (s + round*k) % procs for k = 1..(round%3+1).
			fanout := round%3 + 1
			for k := 1; k <= fanout; k++ {
				dst := (c.Rank() + round*k + 1) % procs
				payload := c.Rank()*1000000 + round*1000 + k
				if err := c.Isend(dst, round*10+k, payload, 8); err != nil {
					return err
				}
			}
			for k := 1; k <= fanout; k++ {
				// Invert the mapping: src + round*k + 1 = me (mod procs).
				src := ((c.Rank()-round*k-1)%procs + procs) % procs
				p, err := c.Recv(src, round*10+k)
				if err != nil {
					return err
				}
				want := src*1000000 + round*1000 + k
				if p.(int) != want {
					return fmt.Errorf("round %d k %d: got %d want %d", round, k, p, want)
				}
			}
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

// TestStressCollectivesLargeWorld runs the collective suite at an odd,
// larger world size.
func TestStressCollectivesLargeWorld(t *testing.T) {
	const procs = 23
	err := Run(Options{Procs: procs, Cost: netmodel.Free()}, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		_ = rng
		for root := 0; root < procs; root += 5 {
			v, err := c.Bcast(root, c.Rank()*0+root*7, 8)
			if err != nil {
				return err
			}
			if v.(int) != root*7 {
				return fmt.Errorf("bcast root %d: got %v", root, v)
			}
			all, err := c.Allgather(c.Rank(), 8)
			if err != nil {
				return err
			}
			for r, v := range all {
				if v.(int) != r {
					return fmt.Errorf("allgather slot %d = %v", r, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
