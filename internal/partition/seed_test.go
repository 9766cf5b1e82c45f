package partition

import (
	"math/rand"
	"testing"
)

// farthestUnassigned is the seed search greedyGrow used before seedSearch,
// kept as the reference: a full BFS seeded with every assigned vertex in
// ascending id, returning the first unassigned vertex it discovers at the
// largest distance, the smallest unassigned id when it reaches none, and -1
// when every vertex is assigned.
func farthestUnassigned(g *wgraph, part, dist, queue []int) int {
	queue = queue[:0]
	for v := 0; v < g.n; v++ {
		if part[v] != -1 {
			dist[v] = 0
			queue = append(queue, v)
		} else {
			dist[v] = -1
		}
	}
	best, bestD := -1, -1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.nbrs(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
				if part[u] == -1 && dist[u] > bestD {
					best, bestD = u, dist[u]
				}
			}
		}
	}
	if best == -1 {
		for v := 0; v < g.n; v++ {
			if part[v] == -1 {
				return v
			}
		}
	}
	return best
}

// csr builds a unit-weight wgraph from adjacency lists, keeping each list's
// order: the search's tie-break reads adjacency order, so tests feed it
// orders other than ascending.
func csr(adj [][]int) *wgraph {
	g := &wgraph{n: len(adj), xadj: make([]int, len(adj)+1), vw: make([]int, len(adj)), totw: len(adj)}
	for v, nbrs := range adj {
		g.vw[v] = 1
		for _, u := range nbrs {
			g.adjncy = append(g.adjncy, u)
			g.adjw = append(g.adjw, 1)
		}
		g.xadj[v+1] = len(g.adjncy)
	}
	return g
}

// shuffled returns g's adjacency lists, each in a random order.
func shuffled(g *wgraph, rng *rand.Rand) [][]int {
	adj := make([][]int, g.n)
	for v := range adj {
		adj[v] = append([]int(nil), g.nbrs(v)...)
		rng.Shuffle(len(adj[v]), func(i, j int) { adj[v][i], adj[v][j] = adj[v][j], adj[v][i] })
	}
	return adj
}

// checkFarthestSeeds grows regions of 1 to maxRegion vertices breadth-first
// the way greedyGrow does, from a random first seed, and requires every
// later seed seedSearch picks to be the reference's. It returns the number
// of searches compared.
func checkFarthestSeeds(t *testing.T, g *wgraph, rng *rand.Rand, maxRegion int) int {
	t.Helper()
	part := make([]int, g.n)
	for v := range part {
		part[v] = -1
	}
	dist, queue := make([]int, g.n), make([]int, 0, g.n)
	seeds := newSeedSearch(g)
	region := make([]int, 0, g.n)
	seed := rng.Intn(g.n)
	for p := 0; ; p++ {
		region = append(region[:0], seed)
		part[seed] = p
		size := 1 + rng.Intn(maxRegion)
		for head := 0; head < len(region) && len(region) < size; head++ {
			for _, u := range g.nbrs(region[head]) {
				if part[u] == -1 && len(region) < size {
					part[u] = p
					region = append(region, u)
				}
			}
		}
		seeds.assign(region)
		want := farthestUnassigned(g, part, dist, queue)
		if want == -1 {
			return p
		}
		if got := seeds.farthest(); got != want {
			t.Fatalf("search %d on %d vertices: seedSearch picked %d, the full BFS %d", p+1, g.n, got, want)
		}
		seed = want
	}
}

// TestFarthestSeedMatchesReference runs the differential check on the
// pinned graphs, each in its own adjacency order and shuffled, with regions
// of the sizes a many-part call grows.
func TestFarthestSeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	searches := 0
	for _, pin := range multilevelPins {
		g, err := pin.graph()
		if err != nil {
			t.Fatal(err)
		}
		w := fromGraph(g)
		searches += checkFarthestSeeds(t, w, rng, 16)
		searches += checkFarthestSeeds(t, csr(shuffled(w, rng)), rng, 16)
	}
	if searches < 1000 {
		t.Fatalf("only %d searches compared", searches)
	}
}

// FuzzFarthestSeed draws small graphs — disconnected ones included — from
// the bytes: data[0] picks the vertex count and each later pair of bytes an
// edge. seed shuffles every adjacency list and draws the first seed and the
// region sizes. Every seed seedSearch picks must be the reference's. Seed
// corpus in testdata/fuzz.
func FuzzFarthestSeed(f *testing.F) {
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11}, int64(1))
	f.Add([]byte{9, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		adj := make([][]int, n)
		has := make(map[[2]int]bool)
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v || has[[2]int{u, v}] {
				continue
			}
			has[[2]int{u, v}], has[[2]int{v, u}] = true, true
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		rng := rand.New(rand.NewSource(seed))
		g := csr(shuffled(csr(adj), rng))
		checkFarthestSeeds(t, g, rng, 1+n/4)
	})
}
