package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ic2mpi/internal/graph"
)

// recordingBalancer keeps a copy of every processor graph it is handed
// and plans nothing, so the owner map stays the initial partition.
type recordingBalancer struct{ seen [][][]int }

func (b *recordingBalancer) Name() string { return "recording" }
func (b *recordingBalancer) Plan(pg ProcGraph) []Pair {
	comm := make([][]int, len(pg.Comm))
	for i, row := range pg.Comm {
		comm[i] = slices.Clone(row)
	}
	b.seen = append(b.seen, comm)
	return nil
}

// procGraphOf recounts the processor graph of an owner map: a node is
// one entry in its owner's send count to every other processor that owns
// one of its neighbours, and Comm[p][q] is p's send count to q plus q's
// to p.
func procGraphOf(g *graph.Graph, owner []int, procs int) [][]int {
	comm := make([][]int, procs)
	for p := range comm {
		comm[p] = make([]int, procs)
	}
	for v, adj := range g.Adj {
		p := owner[v]
		var to []int
		for _, u := range adj {
			if q := owner[u]; q != p && !slices.Contains(to, q) {
				to = append(to, q)
				comm[p][q]++
				comm[q][p]++
			}
		}
	}
	return comm
}

// TestGatheredProcGraph checks the processor graph rank 0 assembles from
// the ranks' gathered peer lists against one recounted from the graph and
// the owner map, on a random graph with a random owner map, at processor
// counts up to more processors than nodes (ranks that hold nothing send
// only their owned count), at the automatic worker count and at one. Each
// row is named after the kernel name that resolves to its worker count
// (pevent's count is goroutine's).
func TestGatheredProcGraph(t *testing.T) {
	g, err := graph.Random(40, 0.12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 5, 16, 64} {
		rng := rand.New(rand.NewSource(int64(procs)))
		owner := make([]int, g.NumVertices())
		for v := range owner {
			owner[v] = rng.Intn(procs)
		}
		want := procGraphOf(g, owner, procs)
		for _, row := range []struct {
			kernel  string
			workers int
		}{{"goroutine", 0}, {"event", 1}} {
			t.Run(fmt.Sprintf("p%d-%s", procs, row.kernel), func(t *testing.T) {
				bal := &recordingBalancer{}
				cfg := baseConfig(g, procs)
				cfg.InitialPartition = owner
				cfg.KernelWorkers = row.workers
				cfg.Balancer = bal
				cfg.BalanceEvery = 2
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				if len(bal.seen) == 0 {
					t.Fatal("the balancer was never called")
				}
				for k, got := range bal.seen {
					if len(got) != procs {
						t.Fatalf("invocation %d: %d rows, want %d", k, len(got), procs)
					}
					for p := range want {
						if !slices.Equal(got[p], want[p]) {
							t.Fatalf("invocation %d: Comm[%d] = %v, want %v", k, p, got[p], want[p])
						}
					}
				}
			})
		}
	}
}
