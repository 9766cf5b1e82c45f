package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"ic2mpi/internal/graph"
)

func hex64x64() (*graph.Graph, error) { return graph.HexGrid(64, 64) }
func hex32x32() (*graph.Graph, error) { return graph.HexGrid(32, 32) }
func random64() (*graph.Graph, error) { return graph.PaperRandom(64) }

// multilevelPins holds the SHA-256 of Multilevel{Seed: 1}'s partition
// vector (one little-endian uint32 per vertex) on the graphs and part
// counts the scenarios and the benchmark run it at. Host-side work on the
// partitioner (scratch reuse, data layout) must leave every vector as it is.
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

// BenchmarkMultilevelK256 is the partitioner call of the benchmark's dense
// machine cell: a 4096-node hex grid cut into 256 parts. B/op and allocs/op
// are the rows to watch: seeding and refinement work out of reused scratch
// space, so neither may grow with the part count.
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
