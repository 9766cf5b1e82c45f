package graph

import (
	"fmt"
	"math/rand"
)

// Generators for the three application topologies evaluated in the paper:
// hexagonal grids (32-, 64- and 96-node), connected random graphs (32- and
// 64-node), and the 32x32-hex battlefield mesh (the same hex adjacency at
// 1024 nodes).

// HexGrid returns a rows x cols hexagonal grid using "odd-r" offset
// coordinates: every cell has up to six neighbors (east, west, and four
// diagonal neighbors whose columns depend on row parity). The paper's
// 32-node grid is 4x8, 64-node is 8x8, 96-node is 8x12, and the
// battlefield terrain is 32x32.
func HexGrid(rows, cols int) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("graph: HexGrid dimensions must be positive, got %dx%d", rows, cols)
	}
	n := rows * cols
	g := newWithSlots(n, 6)
	g.Name = fmt.Sprintf("%d-node Hexagonal Grid (%dx%d)", n, rows, cols)
	g.Coords = make([]Coord, n)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Coords[id(r, c)] = Coord{Row: r, Col: c}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for _, d := range HexNeighborOffsets(r) {
				nr, nc := r+d.Row, c+d.Col
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				u, v := id(r, c), id(nr, nc)
				if u < v {
					if err := g.AddEdge(u, v, 1); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// newWithSlots returns an empty graph whose adjacency lists are carved out
// of one backing array, slots entries each, so AddEdge grows no list of
// degree <= slots; an append past slots reallocates that list alone.
func newWithSlots(n, slots int) *Graph {
	g := New(n)
	backing := make([]NodeID, n*slots)
	for v := range g.Adj {
		g.Adj[v] = backing[v*slots : v*slots : (v+1)*slots]
	}
	return g
}

// HexNeighborOffsets returns the six (dRow, dCol) neighbor offsets of a hex
// cell in row r under odd-r offset coordinates, from one table that callers
// only read. Exposed for the battlefield simulation, which indexes damage by
// hex direction 0..5 exactly as the original hex_node_data_struct does.
func HexNeighborOffsets(r int) *[6]Coord {
	if r%2 == 0 {
		return &hexOffsets[0]
	}
	return &hexOffsets[1]
}

// hexOffsets are the even-row and odd-row offsets in direction order: east,
// northeast, northwest, west, southwest, southeast. Even rows shift the
// diagonals toward lower columns.
var hexOffsets = [2][6]Coord{
	{{0, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}},
	{{0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, 0}, {1, 1}},
}

// Random returns a connected random graph with n vertices where every
// non-tree edge is present independently with probability p. A random
// spanning tree (built over a seeded permutation) guarantees connectivity,
// matching the thesis' use of connected random program graphs. The
// generator is deterministic for a given (n, p, seed).
func Random(n int, p float64, seed int64) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: Random needs n > 0, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: Random needs p in [0,1], got %g", p)
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	g.Name = fmt.Sprintf("%d-node Random Graph", n)
	perm := rng.Perm(n)
	// Random spanning tree: attach each vertex (in permuted order) to a
	// random earlier vertex.
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		if err := g.AddEdge(u, v, 1); err != nil {
			return nil, err
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(NodeID(u), NodeID(v)) {
				continue
			}
			if rng.Float64() < p {
				if err := g.AddEdge(NodeID(u), NodeID(v), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Grid returns a rows x cols rectangular grid with planar coordinates.
// With moore false each interior cell has the four von Neumann neighbors
// (N, S, E, W); with moore true the four diagonals are added, giving the
// eight-cell Moore neighborhood cellular automata such as Game of Life
// use. Boundaries are hard walls (no wraparound), matching the hex-grid
// generators.
func Grid(rows, cols int, moore bool) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("graph: Grid dimensions must be positive, got %dx%d", rows, cols)
	}
	n := rows * cols
	kind, slots := "von Neumann", 4
	if moore {
		kind, slots = "Moore", 8
	}
	g := newWithSlots(n, slots)
	g.Name = fmt.Sprintf("%d-node Grid (%dx%d, %s)", n, rows, cols, kind)
	g.Coords = make([]Coord, n)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	offsets := [][2]int{{0, 1}, {1, 0}}
	if moore {
		offsets = append(offsets, [2]int{1, 1}, [2]int{1, -1})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Coords[id(r, c)] = Coord{Row: r, Col: c}
			for _, d := range offsets {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				if err := g.AddEdge(id(r, c), id(nr, nc), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Path returns a path graph with n vertices, useful in tests as the
// smallest connected topology with boundary effects.
func Path(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: Path needs n > 0, got %d", n)
	}
	g := New(n)
	g.Name = fmt.Sprintf("%d-node Path", n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(NodeID(v), NodeID(v+1), 1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Complete returns the complete graph K_n, the worst case for edge-cut.
func Complete(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: Complete needs n > 0, got %d", n)
	}
	g := New(n)
	g.Name = fmt.Sprintf("K%d", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(NodeID(u), NodeID(v), 1); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// PaperHexGrid returns the paper's named hexagonal grids: n must be 32, 64
// or 96 (4x8, 8x8 and 8x12 respectively).
func PaperHexGrid(n int) (*Graph, error) {
	switch n {
	case 32:
		return HexGrid(4, 8)
	case 64:
		return HexGrid(8, 8)
	case 96:
		return HexGrid(8, 12)
	default:
		return nil, fmt.Errorf("graph: paper hexagonal grids are 32, 64 or 96 nodes, got %d", n)
	}
}

// PaperRandom returns the paper's random graphs: n must be 32 or 64. The
// edge probability is chosen to give an average degree near the hex grids'
// (≈5), so the fine/coarse grain comparisons are apples-to-apples.
func PaperRandom(n int) (*Graph, error) {
	switch n {
	case 32:
		return Random(32, 0.13, 3201)
	case 64:
		return Random(64, 0.065, 6401)
	default:
		return nil, fmt.Errorf("graph: paper random graphs are 32 or 64 nodes, got %d", n)
	}
}
