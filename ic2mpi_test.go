package ic2mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"ic2mpi"
)

// average is the canonical user node function used across the public-API
// tests.
func average(id ic2mpi.NodeID, iter, sub int, self ic2mpi.NodeData, nbrs []ic2mpi.Neighbor) (ic2mpi.NodeData, float64) {
	sum := int64(self.(ic2mpi.IntData))
	for _, nb := range nbrs {
		sum += int64(nb.Data.(ic2mpi.IntData))
	}
	return ic2mpi.IntData(sum / int64(len(nbrs)+1)), 0.3e-3
}

func initID(id ic2mpi.NodeID) ic2mpi.NodeData { return ic2mpi.IntData(int64(id) + 1) }

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            4,
		InitialPartition: part,
		InitData:         initID,
		Node:             average,
		Iterations:       10,
	}
	res, err := ic2mpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ic2mpi.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Fatalf("node %d: %v != %v", v, res.FinalData[v], want[v])
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestPublicAPIPartitioners(t *testing.T) {
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := ic2mpi.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []ic2mpi.Partitioner{
		ic2mpi.NewMetis(1),
		ic2mpi.NewPaGrid(0.45, 1),
		ic2mpi.RowBand(),
		ic2mpi.ColumnBand(),
		ic2mpi.RectBand(),
		ic2mpi.BFPartition(),
	} {
		part, err := pt.Partition(g, net, 4)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
		q, err := ic2mpi.EvaluatePartition(g, part, 4)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
		if q.EdgeCut < 0 || len(q.PartWeights) != 4 {
			t.Fatalf("%s: bad quality %+v", pt.Name(), q)
		}
	}
}

func TestPublicAPIChacoRoundTrip(t *testing.T) {
	g, err := ic2mpi.RandomGraph(30, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ic2mpi.WriteChaco(&buf, g, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ic2mpi.ReadChaco(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestPublicAPIDynamicBalancer(t *testing.T) {
	g, err := ic2mpi.RandomGraph(48, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	hotspot := func(id ic2mpi.NodeID, iter, sub int, self ic2mpi.NodeData, nbrs []ic2mpi.Neighbor) (ic2mpi.NodeData, float64) {
		out, _ := average(id, iter, sub, self, nbrs)
		cost := 0.03e-3
		if part[id] == 0 { // everything that starts on proc 0 is hot
			cost = 3e-3
		}
		return out, cost
	}
	b, err := ic2mpi.NewBalancer("centralized", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            4,
		InitialPartition: part,
		InitData:         initID,
		Node:             hotspot,
		Iterations:       30,
		Balancer:         b,
		BalanceEvery:     3,
		BalanceRounds:    4,
	}
	res, err := ic2mpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("balancer never migrated despite a persistent hotspot")
	}
	static := cfg
	static.Balancer = nil
	sres, err := ic2mpi.Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed >= sres.Elapsed {
		t.Fatalf("dynamic %.4f not faster than static %.4f under persistent hotspot", res.Elapsed, sres.Elapsed)
	}
	// Correctness preserved across migrations.
	want, err := ic2mpi.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.FinalData[v] != want[v] {
			t.Fatalf("node %d: %v != %v", v, res.FinalData[v], want[v])
		}
	}
}

// TestPublicAPIBalancers resolves every name Balancers reports through
// NewBalancer and refuses one it does not.
func TestPublicAPIBalancers(t *testing.T) {
	names := ic2mpi.Balancers()
	if len(names) == 0 || names[0] != "none" {
		t.Fatalf("Balancers() = %v, want \"none\" first", names)
	}
	for _, name := range names {
		b, err := ic2mpi.NewBalancer(name, "hypercube", 8)
		if err != nil {
			t.Fatalf("NewBalancer(%q): %v", name, err)
		}
		if (b == nil) != (name == "none") {
			t.Errorf("NewBalancer(%q) = %v", name, b)
		}
	}
	if _, err := ic2mpi.NewBalancer("greedy", "", 4); err == nil {
		t.Error("NewBalancer accepted an unknown name")
	}
}

func TestPublicAPIHeterogeneousNetwork(t *testing.T) {
	net, err := ic2mpi.HeterogeneousGrid(8, 2.0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if net.Procs() != 8 {
		t.Fatalf("procs = %d", net.Procs())
	}
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ic2mpi.NewPaGrid(0.45, 3).Partition(g, net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := func() error {
		for _, p := range part {
			if p < 0 || p >= 8 {
				return fmt.Errorf("bad part %d", p)
			}
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
}
