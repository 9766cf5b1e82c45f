package partition

import (
	"fmt"
	"math/rand"
	"slices"

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

// wgraph is the internal weighted-graph form used during partitioning, in
// Metis' compressed sparse row layout: the neighbours of v are
// adjncy[xadj[v]:xadj[v+1]], and adjw holds their edge weights at the same
// positions.
type wgraph struct {
	n      int
	xadj   []int
	adjncy []int
	adjw   []int
	vw     []int
	totw   int
}

// nbrs returns the neighbours of v.
func (g *wgraph) nbrs(v int) []int { return g.adjncy[g.xadj[v]:g.xadj[v+1]] }

func fromGraph(g *graph.Graph) *wgraph {
	n, arcs := g.NumVertices(), 2*g.NumEdges()
	w := &wgraph{n: n, xadj: make([]int, n+1), adjncy: make([]int, 0, arcs), adjw: make([]int, 0, arcs), vw: make([]int, n)}
	for v := 0; v < n; v++ {
		w.vw[v] = g.WeightOf(graph.NodeID(v))
		w.totw += w.vw[v]
		for i, u := range g.Adj[v] {
			w.adjncy = append(w.adjncy, int(u))
			w.adjw = append(w.adjw, g.EdgeWeightAt(graph.NodeID(v), i))
		}
		w.xadj[v+1] = len(w.adjncy)
	}
	return w
}

// fillPerm fills m with the permutation rng.Perm(len(m)) returns, drawing
// the same numbers, so one buffer serves every pass and the stream is the
// one rand.Perm leaves.
func fillPerm(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i], m[j] = m[j], i
	}
}

// Partition implements Partitioner.
func (m *Multilevel) Partition(g *graph.Graph, _ *topology.Network, k int) ([]int, error) {
	_, part, err := m.partitionCSR(g, k)
	return part, err
}

// partitionCSR is Partition that also returns the CSR form of g it
// partitioned (nil when k is 1), so PaGrid refines on it without building
// another.
func (m *Multilevel) partitionCSR(g *graph.Graph, k int) (*wgraph, []int, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("partition: Multilevel needs k >= 1, got %d", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, nil, fmt.Errorf("partition: empty graph")
	}
	if k == 1 {
		return nil, make([]int, n), nil
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
		return nil, nil, fmt.Errorf("partition: internal error: %w", err)
	}
	return levels[0].g, part, nil
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
		for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
			if u := g.adjncy[j]; match[u] == -1 && g.adjw[j] > bestW {
				bestU, bestW = u, g.adjw[j]
			}
		}
		if bestU == -1 {
			match[v] = v // matched with itself
		} else {
			match[v] = bestU
			match[bestU] = v
		}
	}
	// Assign coarse ids. rep[cv] is the smaller fine vertex of cv, the
	// other is match[rep[cv]]; it reuses order, which is spent.
	mapTo := make([]int, g.n)
	for i := range mapTo {
		mapTo[i] = -1
	}
	rep := order[:0]
	for v := 0; v < g.n; v++ {
		if mapTo[v] != -1 {
			continue
		}
		mapTo[v] = len(rep)
		mapTo[match[v]] = len(rep)
		rep = append(rep, v)
	}
	cn := len(rep)
	coarse := &wgraph{n: cn, xadj: make([]int, cn+1), adjncy: make([]int, 0, len(g.adjncy)),
		adjw: make([]int, 0, len(g.adjncy)), vw: make([]int, cn), totw: g.totw}
	// acc[cu] sums the edge weight from the coarse vertex being built to cu,
	// and seen[cu] is 1 + the last coarse vertex that listed cu.
	acc := make([]int, cn)
	seen := make([]int, cn)
	for cv, v := range rep {
		pair := [2]int{v, match[v]}
		members := pair[:1]
		if match[v] != v {
			members = pair[:]
		}
		for _, f := range members {
			coarse.vw[cv] += g.vw[f]
			for j := g.xadj[f]; j < g.xadj[f+1]; j++ {
				cu := mapTo[g.adjncy[j]]
				if cu == cv {
					continue
				}
				if seen[cu] != cv+1 {
					seen[cu] = cv + 1
					coarse.adjncy = append(coarse.adjncy, cu)
				}
				acc[cu] += g.adjw[j]
			}
		}
		nbrs := coarse.adjncy[coarse.xadj[cv]:]
		slices.Sort(nbrs)
		for _, cu := range nbrs {
			coarse.adjw = append(coarse.adjw, acc[cu])
			acc[cu] = 0
		}
		coarse.xadj[cv+1] = len(coarse.adjncy)
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

	seeds := newSeedSearch(g)
	queue := make([]int, 0, g.n)
	seed := rng.Intn(g.n)
	for p := 0; p < k && assigned < g.n; p++ {
		// The first seed is random; each later one is the unassigned vertex
		// farthest (BFS hops) from all assigned vertices. queue still holds
		// region p-1.
		if p > 0 {
			seeds.assign(queue)
			seed = seeds.farthest()
		}
		queue = append(queue[:0], seed)
		part[seed] = p
		weights[p] += g.vw[seed]
		assigned++
		for head := 0; head < len(queue) && weights[p] < target; head++ {
			for _, u := range g.nbrs(queue[head]) {
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
		for _, u := range g.nbrs(v) {
			if part[u] != -1 && (best == -1 || weights[part[u]] < weights[best]) {
				best = part[u]
			}
		}
		if best == -1 {
			best = slices.Index(weights, slices.Min(weights))
		}
		part[v] = best
		weights[best] += g.vw[v]
	}
	// Guarantee no empty part when n >= k: each empty part takes the
	// heaviest part's first vertex, in id order, that weighs less than that
	// part.
	for p := 0; p < k; p++ {
		if weights[p] > 0 || g.n < k {
			continue
		}
		donor := slices.Index(weights, slices.Max(weights))
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

// seedSearch picks greedyGrow's seeds. dist[v] is v's BFS distance to the
// nearest assigned vertex (n when none reaches v); it is kept across seeds
// and only lowered, so an assigned vertex is walked once, when its region
// is added.
type seedSearch struct {
	g      *wgraph
	dist   []int
	cone   []int // scratch: assign's queue, then farthest's cone
	onCone []bool
}

func newSeedSearch(g *wgraph) *seedSearch {
	s := &seedSearch{g: g, dist: make([]int, g.n), cone: make([]int, 0, g.n), onCone: make([]bool, g.n)}
	for v := range s.dist {
		s.dist[v] = g.n
	}
	return s
}

// assign records that region's vertices were just assigned: a BFS from
// them visits only the vertices whose distance drops.
func (s *seedSearch) assign(region []int) {
	q := append(s.cone[:0], region...)
	for _, v := range region {
		s.dist[v] = 0
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, u := range s.g.nbrs(v) {
			if s.dist[u] > s.dist[v]+1 {
				s.dist[u] = s.dist[v] + 1
				q = append(q, u)
			}
		}
	}
}

// farthest returns the unassigned vertex that a BFS seeded with every
// assigned vertex, in ascending id, discovers first at the largest
// distance D; the smallest unassigned id when no assigned vertex reaches
// one. That BFS discovers a level in the order of each vertex's
// lexicographically smallest shortest path, keyed by (source id, adjacency
// index at each step), so the answer is the end of the smallest such path
// of length D. farthest marks the cone of shortest paths that end at
// level D, backward from there, and walks it forward from its smallest
// source, taking the first marked neighbour in adjacency order each step.
func (s *seedSearch) farthest() int {
	g, dist := s.g, s.dist
	// The assigned vertices are those at distance 0. One pass finds the
	// first unassigned vertex, D and the vertices at level D.
	maxD, first, cone := 0, -1, s.cone[:0]
	for v, d := range dist {
		if d > 0 && first == -1 {
			first = v
		}
		if d == 0 || d == g.n || d < maxD {
			continue
		}
		if d > maxD {
			maxD, cone = d, cone[:0]
		}
		cone = append(cone, v)
	}
	if maxD == 0 {
		return first
	}
	src := g.n
	for i := 0; i < len(cone); i++ {
		x := cone[i]
		s.onCone[x] = true // level D's mark; lower levels are marked when queued
		if dist[x] == 0 {
			src = min(src, x)
			continue
		}
		for _, y := range g.nbrs(x) {
			if dist[y] == dist[x]-1 && !s.onCone[y] {
				s.onCone[y] = true
				cone = append(cone, y)
			}
		}
	}
	v := src
	for dist[v] < maxD {
		for _, u := range g.nbrs(v) {
			if s.onCone[u] && dist[u] == dist[v]+1 {
				v = u
				break
			}
		}
	}
	for _, x := range cone {
		s.onCone[x] = false
	}
	return v
}

// rebalance explicitly evens out part weights before cut refinement:
// while the heaviest and lightest parts differ by more than the largest
// vertex weight, it moves the vertex from the heaviest part whose move
// damages the cut least (preferring vertices already adjacent to the
// lightest part). FM alone only takes positive-gain moves and cannot
// repair a lopsided initial partition.
func rebalance(g *wgraph, part []int, k int) {
	// Each part's members form a list in ascending id: head[p] is the first,
	// next[v] follows v (-1 ends a list). A step reads the heaviest part's
	// members only.
	weights := make([]int, k)
	head := make([]int, k)
	next := make([]int, g.n)
	for p := range head {
		head[p] = -1
	}
	for v := g.n - 1; v >= 0; v-- {
		weights[part[v]] += g.vw[v]
		next[v], head[part[v]] = head[part[v]], v
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
		best, bestPrev, bestScore := -1, -1, 0
		for prev, v := -1, head[h]; v != -1; prev, v = v, next[v] {
			// Moving v must strictly shrink the gap.
			if 2*g.vw[v] >= 2*(weights[h]-weights[l]) {
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
				best, bestPrev, bestScore = v, prev, score
			}
		}
		if best == -1 {
			return
		}
		if bestPrev == -1 {
			head[h] = next[best]
		} else {
			next[bestPrev] = next[best]
		}
		at := &head[l]
		for *at != -1 && *at < best {
			at = &next[*at]
		}
		next[best], *at = *at, best
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
	// slack[v] is the positive part of v's external edge weight minus its
	// internal edge weight. A move gains only if one part's external weight
	// exceeds the internal weight, so v is skipped without reading its
	// adjacency while slack[v] <= 0: with non-negative weights, every
	// interior vertex and most boundary ones.
	weights := make([]int, k)
	slack := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		weights[part[v]] += g.vw[v]
		for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
			if part[g.adjncy[j]] == part[v] {
				slack[v] -= g.adjw[j]
			} else {
				slack[v] += max(g.adjw[j], 0)
			}
		}
	}
	maxW := max(1, int(maxImbalance*float64(g.totw)/float64(k)))
	order := make([]int, g.n)
	conn := make([]partConn, 0, 8)
	for pass := 0; pass < fmPasses; pass++ {
		improved := false
		fillPerm(rng, order)
		for _, v := range order {
			if slack[v] <= 0 {
				continue
			}
			from := part[v]
			// External degree per part. A vertex touches a handful of
			// parts, so a short list searched linearly stands in for a map.
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
			if bestTo == -1 {
				continue
			}
			part[v] = bestTo
			weights[from] -= g.vw[v]
			weights[bestTo] += g.vw[v]
			improved = true
			// (v, u) turns internal for a neighbour in bestTo and external
			// for one in from.
			slack[v] = 0
			for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
				u, w := g.adjncy[j], g.adjw[j]
				if part[u] == bestTo {
					slack[u] -= max(w, 0) + w
					slack[v] -= w
					continue
				}
				if part[u] == from {
					slack[u] += max(w, 0) + w
				}
				slack[v] += max(w, 0)
			}
		}
		if !improved {
			break
		}
	}
}
