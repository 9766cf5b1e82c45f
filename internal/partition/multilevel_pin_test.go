package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/topology"
)

func hex64x64() (*graph.Graph, error)   { return graph.HexGrid(64, 64) }
func hex32x32() (*graph.Graph, error)   { return graph.HexGrid(32, 32) }
func random64() (*graph.Graph, error)   { return graph.PaperRandom(64) }
func moore32x32() (*graph.Graph, error) { return graph.Grid(32, 32, true) }

// weightedHex32x32 is HexGrid(32, 32) with vertex weights 1, 2 and 5 and
// edge weights 1-3, so coarsening, rebalance and refinement weigh
// something other than ones.
func weightedHex32x32() (*graph.Graph, error) {
	g, err := graph.HexGrid(32, 32)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	g.VertexWeight = make([]int, n)
	g.EdgeWeight = make([][]int, n)
	for v := range n {
		g.VertexWeight[v] = 1 + v*v%5
		g.EdgeWeight[v] = make([]int, len(g.Adj[v]))
		for i, u := range g.Adj[v] {
			g.EdgeWeight[v][i] = 1 + v*int(u)%3 // symmetric in (v, u)
		}
	}
	return g, g.Validate()
}

// twoHex is two disjoint hex grids, 16x16 (vertices 0-255) and 32x16
// (256-767), in one graph. Coarsening never joins them, so the seed search
// meets vertices no assigned vertex reaches.
func twoHex() (*graph.Graph, error) {
	a, err := graph.HexGrid(16, 16)
	if err != nil {
		return nil, err
	}
	b, err := graph.HexGrid(32, 16)
	if err != nil {
		return nil, err
	}
	g := graph.New(a.NumVertices() + b.NumVertices())
	off := 0
	for _, h := range []*graph.Graph{a, b} {
		for v, nbrs := range h.Adj {
			for _, u := range nbrs {
				if int(u) > v {
					if err := g.AddEdge(graph.NodeID(off+v), graph.NodeID(off+int(u)), 1); err != nil {
						return nil, err
					}
				}
			}
		}
		off += h.NumVertices()
	}
	return g, nil
}

// multilevelPins holds the SHA-256 of Multilevel{Seed: 1}'s partition
// vector (one little-endian uint32 per vertex) on the graphs and part
// counts the scenarios and the benchmark run it at, plus shapes that reach
// weighted coarsening, unreachable seeds and eight-neighbour grids.
// Host-side work on the partitioner (scratch reuse, data layout) must leave
// every vector as it is.
var multilevelPins = []struct {
	name  string
	graph func() (*graph.Graph, error)
	k     int
	sum   string
}{
	{"hex64x64", hex64x64, 2, "cb260693fced8568fecdde3b5353df82b2de2bb1bc37e184827fffc1307638ea"},
	{"hex64x64", hex64x64, 16, "8e6655f826880d10b8884726de5b9bf52b35bb4e0276d9703315e26366545338"},
	{"hex64x64", hex64x64, 64, "c64ba4c17f9324888fabdeda8abdc81f0c29d94aca104dff006958c405ce0631"},
	{"hex64x64", hex64x64, 256, "130a8b5a2edb1db29bb08501720bd0edef5fcd94c2e652382e12ee32feca5627"},
	{"hex32x32", hex32x32, 4, "fb045e4730f5560f6464eb31d6bb5984cac0503ad7992ef27cb07498ceaf8359"},
	{"hex32x32", hex32x32, 16, "18e11d3c8389e04f94951dbcd9587cfb632e406ba27f57a37d4b584fa787f3b7"},
	{"random64", random64, 4, "e7ba23090af6fcd6de6238e1c27d571797397abb7e46e0ddd5e109faa51cd715"},
	{"random64", random64, 16, "e30ba12ecd9fb304d410e403747d8c426cc87a97d3b9c9d6b7f4101914b0f789"},
	{"weightedHex32x32", weightedHex32x32, 16, "d995450d6e6fe77301871aedf9d5b57af2985def6bfe7c3f21c09a966bb1560d"},
	{"weightedHex32x32", weightedHex32x32, 64, "43e3fbaf7e2c21a5671c20d7edea219a335cd728e69d6dbb81ff311af3d4a00b"},
	{"twoHex", twoHex, 8, "3cad869ff8ce1d3633d1ac9459f5687be0c73f813554fa6f6f8abadcdbaf59be"},
	{"twoHex", twoHex, 32, "391f8e4d538098a288a539042fde9356a741198704f32e945b2c898f1c89cd74"},
	{"moore32x32", moore32x32, 16, "661466cd0ae620a0981bf8df2fb7806e0d68ad698d7a9c5a51876848f176f117"},
}

// pagridPins holds the same digest of PaGrid{Rref: 0.45, Seed: 1}'s vector,
// the registry's setting, on a hypercube of k processors. PaGrid seeds
// from Multilevel and refines on the same internal graph.
var pagridPins = []struct {
	name  string
	graph func() (*graph.Graph, error)
	k     int
	sum   string
}{
	{"hex64x64", hex64x64, 16, "81e14531ec34830515f600518a9663e05030d726bc0b8618ea7168c4f076e807"},
	{"random64", random64, 8, "ddc1ce8b95d84b503fca256d90907d3bf2ce62362bdd5c8a79cb5e1a52a3b5c2"},
}

func partitionSum(part []int) string {
	buf := make([]byte, 4*len(part))
	for v, p := range part {
		binary.LittleEndian.PutUint32(buf[4*v:], uint32(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

func TestMultilevelPartitionPinned(t *testing.T) {
	for _, pin := range multilevelPins {
		g, err := pin.graph()
		if err != nil {
			t.Fatal(err)
		}
		part, err := (&Multilevel{Seed: 1}).Partition(g, nil, pin.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := partitionSum(part); got != pin.sum {
			t.Errorf("%s k=%d: partition vector hashes to %s, pinned %s", pin.name, pin.k, got, pin.sum)
		}
	}
}

func TestPaGridPartitionPinned(t *testing.T) {
	for _, pin := range pagridPins {
		g, err := pin.graph()
		if err != nil {
			t.Fatal(err)
		}
		net, err := topology.Hypercube(pin.k)
		if err != nil {
			t.Fatal(err)
		}
		part, err := (&PaGrid{Rref: 0.45, Seed: 1}).Partition(g, net, pin.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := partitionSum(part); got != pin.sum {
			t.Errorf("%s k=%d: PaGrid vector hashes to %s, pinned %s", pin.name, pin.k, got, pin.sum)
		}
	}
}

// TestMultilevelAllocsPinned holds the dense machine cell's partitioner
// call to at most 100 allocations. Every level is three flat CSR arrays and
// every pass works in scratch allocated once per call; one allocation per
// vertex, per coarse neighbour list or per pass (21 285 with the
// slice-per-vertex graph) fails it.
func TestMultilevelAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation changes allocation counts")
	}
	g, err := hex64x64()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := (&Multilevel{Seed: 1}).Partition(g, nil, 256); err != nil {
			t.Fatal(err)
		}
	})
	if got > 100 {
		t.Errorf("Multilevel.Partition(hex64x64, k=256) allocates %.0f times, at most 100 pinned", got)
	}
}

// BenchmarkMultilevelK256 is the partitioner call of the benchmark's dense
// machine cell: a 4096-node hex grid cut into 256 parts. Its 255 seed
// searches lower one distance array region by region instead of searching
// from every assigned vertex. allocs/op (54) grows with the number of
// levels, not with vertices, neighbour lists or passes, and
// TestMultilevelAllocsPinned gates it; B/op is the CSR levels and scratch.
func BenchmarkMultilevelK256(b *testing.B) {
	g, err := hex64x64()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := (&Multilevel{Seed: 1}).Partition(g, nil, 256); err != nil {
			b.Fatal(err)
		}
	}
}
