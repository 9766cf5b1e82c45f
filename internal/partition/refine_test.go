package partition

import (
	"math/rand"
	"slices"
	"testing"

	"ic2mpi/internal/graph"
)

// rebalanceReference is rebalance as it was before the per-part member
// lists: every step scans all n vertices for the heaviest part's best move.
// With non-negative vertex weights a part that has received a vertex is
// never the heaviest again while the gap exceeds the largest vertex weight
// (the lightest weight never falls), so where rebalance inserts into the
// lightest part's list cannot show here; it keeps the list in id order for
// any weights.
func rebalanceReference(g *wgraph, part []int, k int) {
	weights := make([]int, k)
	for v := 0; v < g.n; v++ {
		weights[part[v]] += g.vw[v]
	}
	maxVW := max(1, slices.Max(g.vw))
	for step := 0; step < 4*g.n; step++ {
		h, l := 0, 0
		for p := 1; p < k; p++ {
			if weights[p] > weights[h] {
				h = p
			}
			if weights[p] < weights[l] {
				l = p
			}
		}
		if weights[h]-weights[l] <= maxVW {
			return
		}
		best, bestScore := -1, 0
		for v := 0; v < g.n; v++ {
			if part[v] != h || 2*g.vw[v] >= 2*(weights[h]-weights[l]) {
				continue
			}
			score := 0
			for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
				switch part[g.adjncy[j]] {
				case l:
					score += g.adjw[j]
				case h:
					score -= g.adjw[j]
				}
			}
			if best == -1 || score > bestScore {
				best, bestScore = v, score
			}
		}
		if best == -1 {
			return
		}
		part[best] = l
		weights[h] -= g.vw[best]
		weights[l] += g.vw[best]
	}
}

// refineFMReference is refineFM as it was before its slack skip: every
// pass reads every vertex's adjacency, and draws its order with rand.Perm.
func refineFMReference(g *wgraph, part []int, k int, rng *rand.Rand) {
	weights := make([]int, k)
	for v := 0; v < g.n; v++ {
		weights[part[v]] += g.vw[v]
	}
	maxW := max(1, int(maxImbalance*float64(g.totw)/float64(k)))
	var conn []partConn
	for pass := 0; pass < fmPasses; pass++ {
		improved := false
		for _, v := range rng.Perm(g.n) {
			from := part[v]
			conn = conn[:0]
			internal := 0
			for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
				pu := part[g.adjncy[j]]
				if pu == from {
					internal += g.adjw[j]
					continue
				}
				i := 0
				for i < len(conn) && conn[i].part != pu {
					i++
				}
				if i == len(conn) {
					conn = append(conn, partConn{part: pu})
				}
				conn[i].ext += g.adjw[j]
			}
			bestTo, bestGain := -1, 0
			for _, c := range conn {
				to, gain := c.part, c.ext-internal
				if gain < bestGain || gain == 0 ||
					(gain == bestGain && bestTo != -1 && to > bestTo) {
					continue
				}
				if weights[to]+g.vw[v] > maxW || (weights[from]-g.vw[v] <= 0 && g.n >= k) {
					continue
				}
				bestTo, bestGain = to, gain
			}
			if bestTo != -1 {
				part[v] = bestTo
				weights[from] -= g.vw[v]
				weights[bestTo] += g.vw[v]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// TestRefinementMatchesReference runs rebalance and refineFM beside their
// references on random weighted graphs: rebalance from a lopsided random
// partition, then refineFM from its result and from a uniform random
// partition, where vertices move back and forth between parts. It requires
// the same vector after each and the same random stream after refinement.
func TestRefinementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		n, k := 8+rng.Intn(160), 2+rng.Intn(16)
		gg, err := graph.Random(n, 0.02+0.1*rng.Float64(), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		gg.VertexWeight = make([]int, n)
		gg.EdgeWeight = make([][]int, n)
		for v := range n {
			gg.VertexWeight[v] = 1 + rng.Intn(4)
			gg.EdgeWeight[v] = make([]int, len(gg.Adj[v]))
			for i, u := range gg.Adj[v] {
				gg.EdgeWeight[v][i] = (v+int(u))%5 - 1 // -1 to 3: FM's skip is exact for any weight
			}
		}
		g := fromGraph(gg)
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(1 + rng.Intn(k)) // lopsided toward low ids
		}
		got, want := slices.Clone(part), slices.Clone(part)
		rebalance(g, got, k)
		rebalanceReference(g, want, k)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): rebalance moved\n%v\nthe reference\n%v", trial, n, k, got, want)
		}
		uniform := make([]int, n)
		for v := range uniform {
			uniform[v] = rng.Intn(k)
		}
		for _, from := range [][]int{got, uniform} {
			seed := rng.Int63()
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := slices.Clone(from), slices.Clone(from)
			refineFM(g, got, k, rngGot)
			refineFMReference(g, want, k, rngWant)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d k=%d): refineFM moved\n%v\nthe reference\n%v", trial, n, k, got, want)
			}
			if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
				t.Fatalf("trial %d: refineFM left the random stream at %d, the reference at %d", trial, a, b)
			}
		}
	}
}
