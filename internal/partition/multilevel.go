package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/topology"
)

// Multilevel is a multilevel k-way graph partitioner in the style of Metis
// [KK98]: the graph is coarsened by heavy-edge matching, an initial k-way
// partition is built on the coarsest graph by greedy graph growing, and the
// partition is projected back through the levels with boundary
// Fiduccia-Mattheyses refinement at each level. Like Metis, it optimizes
// edge-cut under a balance constraint and ignores the processor network.
type Multilevel struct {
	// Seed makes coarsening and seeding deterministic; the zero value is a
	// valid seed.
	Seed int64
}

const (
	// maxImbalance is the allowed part-weight imbalance: 10% over perfect
	// balance, close to Metis' ubfactor default.
	maxImbalance = 1.10
	// fmPasses bounds FM passes per level.
	fmPasses = 8
)

// Name implements Partitioner.
func (m *Multilevel) Name() string { return "Metis" }

// level is one graph in the coarsening hierarchy plus its projection map.
type level struct {
	g *wgraph
	// coarseOf[v] is the coarse vertex that fine vertex v collapsed into;
	// nil for the finest level.
	coarseOf []int
}

// wgraph is the internal weighted-graph form used during partitioning.
type wgraph struct {
	n    int
	adj  [][]int
	ew   [][]int
	vw   []int
	totw int
}

func fromGraph(g *graph.Graph) *wgraph {
	n := g.NumVertices()
	w := &wgraph{n: n, adj: make([][]int, n), ew: make([][]int, n), vw: make([]int, n)}
	for v := 0; v < n; v++ {
		w.vw[v] = g.WeightOf(graph.NodeID(v))
		w.totw += w.vw[v]
		w.adj[v] = make([]int, len(g.Adj[v]))
		w.ew[v] = make([]int, len(g.Adj[v]))
		for i, u := range g.Adj[v] {
			w.adj[v][i] = int(u)
			w.ew[v][i] = g.EdgeWeightAt(graph.NodeID(v), i)
		}
	}
	return w
}

// Partition implements Partitioner.
func (m *Multilevel) Partition(g *graph.Graph, _ *topology.Network, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: Multilevel needs k >= 1, got %d", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	if k == 1 {
		return make([]int, n), nil
	}
	rng := rand.New(rand.NewSource(m.Seed + int64(k)*1000003))

	// Coarsening stops once the graph has at most this many vertices.
	coarsenTo := max(8*k, 32)

	// Coarsening phase.
	levels := []level{{g: fromGraph(g)}}
	for {
		cur := levels[len(levels)-1].g
		if cur.n <= coarsenTo {
			break
		}
		coarse, mapTo := coarsen(cur, rng)
		if coarse.n >= cur.n { // matching stalled, stop
			break
		}
		levels = append(levels, level{g: coarse, coarseOf: mapTo})
	}

	// Initial partition on the coarsest graph.
	coarsest := levels[len(levels)-1].g
	part := greedyGrow(coarsest, k, rng)
	rebalance(coarsest, part, k)
	refineFM(coarsest, part, k, rng)

	// Uncoarsening with refinement.
	for li := len(levels) - 1; li > 0; li-- {
		fine := levels[li-1].g
		mapTo := levels[li].coarseOf
		finePart := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			finePart[v] = part[mapTo[v]]
		}
		part = finePart
		rebalance(fine, part, k)
		refineFM(fine, part, k, rng)
	}
	if err := Validate(g, part, k); err != nil {
		return nil, fmt.Errorf("partition: internal error: %w", err)
	}
	return part, nil
}

// coarsen performs one round of heavy-edge matching and returns the coarse
// graph plus the fine-to-coarse vertex map.
func coarsen(g *wgraph, rng *rand.Rand) (*wgraph, []int) {
	match := make([]int, g.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(g.n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		bestU, bestW := -1, -1
		for i, u := range g.adj[v] {
			if match[u] == -1 && g.ew[v][i] > bestW {
				bestU, bestW = u, g.ew[v][i]
			}
		}
		if bestU == -1 {
			match[v] = v // matched with itself
		} else {
			match[v] = bestU
			match[bestU] = v
		}
	}
	// Assign coarse ids.
	mapTo := make([]int, g.n)
	for i := range mapTo {
		mapTo[i] = -1
	}
	cn := 0
	for v := 0; v < g.n; v++ {
		if mapTo[v] != -1 {
			continue
		}
		mapTo[v] = cn
		if match[v] != v {
			mapTo[match[v]] = cn
		}
		cn++
	}
	coarse := &wgraph{n: cn, adj: make([][]int, cn), ew: make([][]int, cn), vw: make([]int, cn), totw: g.totw}
	// Accumulate edges via a temporary map per coarse vertex.
	acc := make(map[int]int)
	for cv := 0; cv < cn; cv++ {
		coarse.adj[cv] = nil
	}
	members := make([][]int, cn)
	for v := 0; v < g.n; v++ {
		members[mapTo[v]] = append(members[mapTo[v]], v)
	}
	for cv := 0; cv < cn; cv++ {
		for k := range acc {
			delete(acc, k)
		}
		for _, v := range members[cv] {
			coarse.vw[cv] += g.vw[v]
			for i, u := range g.adj[v] {
				cu := mapTo[u]
				if cu != cv {
					acc[cu] += g.ew[v][i]
				}
			}
		}
		nbrs := make([]int, 0, len(acc))
		for cu := range acc {
			nbrs = append(nbrs, cu)
		}
		sort.Ints(nbrs)
		coarse.adj[cv] = nbrs
		ws := make([]int, len(nbrs))
		for i, cu := range nbrs {
			ws[i] = acc[cu]
		}
		coarse.ew[cv] = ws
	}
	return coarse, mapTo
}

// greedyGrow builds an initial k-way partition by growing k regions
// breadth-first from spread-out seeds, each region stopping at its target
// weight. Unreached vertices are swept into the lightest adjacent (or
// overall lightest) part, guaranteeing a total assignment.
func greedyGrow(g *wgraph, k int, rng *rand.Rand) []int {
	part := make([]int, g.n)
	for i := range part {
		part[i] = -1
	}
	target := (g.totw + k - 1) / k
	weights := make([]int, k)
	assigned := 0

	// One distance array and one queue serve every seed search and every
	// region's growth, so a many-part call allocates them once, not per part.
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	seed := rng.Intn(g.n)
	for p := 0; p < k && assigned < g.n; p++ {
		// Pick the unassigned vertex farthest (BFS hops) from all assigned
		// vertices as the next seed; the first seed is random.
		if p > 0 {
			seed = farthestUnassigned(g, part, dist, queue)
			if seed == -1 {
				break
			}
		}
		queue = append(queue[:0], seed)
		part[seed] = p
		weights[p] += g.vw[seed]
		assigned++
		for head := 0; head < len(queue) && weights[p] < target; head++ {
			for _, u := range g.adj[queue[head]] {
				if part[u] != -1 || weights[p] >= target {
					continue
				}
				part[u] = p
				weights[p] += g.vw[u]
				assigned++
				queue = append(queue, u)
			}
		}
	}
	// Sweep leftovers into the lightest part (preferring adjacency).
	for v := 0; v < g.n; v++ {
		if part[v] != -1 {
			continue
		}
		best := -1
		for _, u := range g.adj[v] {
			if part[u] != -1 && (best == -1 || weights[part[u]] < weights[best]) {
				best = part[u]
			}
		}
		if best == -1 {
			best = 0
			for p := 1; p < k; p++ {
				if weights[p] < weights[best] {
					best = p
				}
			}
		}
		part[v] = best
		weights[best] += g.vw[v]
	}
	// Guarantee no empty part when n >= k: steal the heaviest part's
	// lightest boundary vertex for each empty part.
	for p := 0; p < k; p++ {
		if weights[p] > 0 || g.n < k {
			continue
		}
		donor := 0
		for q := 1; q < k; q++ {
			if weights[q] > weights[donor] {
				donor = q
			}
		}
		for v := 0; v < g.n; v++ {
			if part[v] == donor && weights[donor] > g.vw[v] {
				part[v] = p
				weights[donor] -= g.vw[v]
				weights[p] += g.vw[v]
				break
			}
		}
	}
	return part
}

// farthestUnassigned returns the unassigned vertex at maximum BFS distance
// from the set of assigned vertices (-1 if none). dist (one entry per
// vertex) and queue (capacity for every vertex) are the caller's scratch
// space; their contents on entry do not matter.
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
		for _, u := range g.adj[v] {
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

// rebalance explicitly evens out part weights before cut refinement:
// while the heaviest and lightest parts differ by more than the largest
// vertex weight, it moves the vertex from the heaviest part whose move
// damages the cut least (preferring vertices already adjacent to the
// lightest part). FM alone only takes positive-gain moves and cannot
// repair a lopsided initial partition.
func rebalance(g *wgraph, part []int, k int) {
	weights := make([]int, k)
	for v := 0; v < g.n; v++ {
		weights[part[v]] += g.vw[v]
	}
	maxVW := 1
	for _, w := range g.vw {
		if w > maxVW {
			maxVW = w
		}
	}
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
			if part[v] != h {
				continue
			}
			// Moving v must strictly shrink the gap.
			if 2*g.vw[v] >= 2*(weights[h]-weights[l]) {
				continue
			}
			score := 0
			for i, u := range g.adj[v] {
				switch part[u] {
				case l:
					score += g.ew[v][i]
				case h:
					score -= g.ew[v][i]
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

// partConn is the total weight of one vertex's edges into one other part.
type partConn struct{ part, ext int }

// refineFM performs greedy boundary refinement: repeated passes moving the
// boundary vertex with the highest edge-cut gain whose move keeps every
// part within the balance bound. A pass with no improving move terminates
// refinement early.
func refineFM(g *wgraph, part []int, k int, rng *rand.Rand) {
	weights := make([]int, k)
	for v := 0; v < g.n; v++ {
		weights[part[v]] += g.vw[v]
	}
	maxW := int(maxImbalance * float64(g.totw) / float64(k))
	if maxW < 1 {
		maxW = 1
	}
	var conn []partConn
	for pass := 0; pass < fmPasses; pass++ {
		improved := false
		order := rng.Perm(g.n)
		for _, v := range order {
			from := part[v]
			// External degree per part. A vertex touches a handful of
			// parts, so a short list searched linearly stands in for a map.
			conn = conn[:0]
			internal := 0
			for i, u := range g.adj[v] {
				if part[u] == from {
					internal += g.ew[v][i]
					continue
				}
				j := 0
				for j < len(conn) && conn[j].part != part[u] {
					j++
				}
				if j == len(conn) {
					conn = append(conn, partConn{part: part[u]})
				}
				conn[j].ext += g.ew[v][i]
			}
			if len(conn) == 0 {
				continue // not a boundary vertex
			}
			// Highest gain wins and equal gains go to the smallest part id,
			// so the choice does not depend on the order conn lists the
			// parts in.
			bestTo, bestGain := -1, 0
			for _, c := range conn {
				to, gain := c.part, c.ext-internal
				if gain < bestGain || gain == 0 ||
					(gain == bestGain && bestTo != -1 && to > bestTo) {
					continue
				}
				if weights[to]+g.vw[v] > maxW {
					continue
				}
				// Do not empty a part.
				if weights[from]-g.vw[v] <= 0 && g.n >= k {
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
