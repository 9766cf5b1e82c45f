package graph

import (
	"fmt"
	"slices"
	"testing"
)

// gridReference builds a rows x cols grid the plain way — New, then
// AddEdge once per undirected edge — with neighbors(r, c) naming each
// cell's adjacent cells, some of them outside the grid.
func gridReference(t *testing.T, rows, cols int, name string, neighbors func(r, c int) []Coord) *Graph {
	t.Helper()
	g := New(rows * cols)
	g.Name = name
	g.Coords = make([]Coord, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := NodeID(r*cols + c)
			g.Coords[u] = Coord{Row: r, Col: c}
			for _, d := range neighbors(r, c) {
				if d.Row < 0 || d.Row >= rows || d.Col < 0 || d.Col >= cols {
					continue
				}
				if v := NodeID(d.Row*cols + d.Col); u < v {
					if err := g.AddEdge(u, v, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return g
}

// TestGridGeneratorsMatchAddEdge holds HexGrid and Grid, whose adjacency
// lists share one backing array, to the graph AddEdge builds from the same
// definition: the same Adj, Coords and Name, and no edge weights. It then
// appends to every list up to and past its capacity and checks that no
// other list moved, so a list's spare slots are its own.
func TestGridGeneratorsMatchAddEdge(t *testing.T) {
	around := func(r, c int, offs []Coord) []Coord {
		out := make([]Coord, len(offs))
		for i, d := range offs {
			out[i] = Coord{Row: r + d.Row, Col: c + d.Col}
		}
		return out
	}
	vonNeumann := []Coord{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	moore := append([]Coord{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}}, vonNeumann...)
	for _, size := range [][2]int{{1, 1}, {1, 5}, {2, 3}, {5, 1}, {4, 8}, {7, 6}, {16, 16}} {
		rows, cols := size[0], size[1]
		n := rows * cols
		hex, err := HexGrid(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		vn, err := Grid(rows, cols, false)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := Grid(rows, cols, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			got, want *Graph
		}{
			{hex, gridReference(t, rows, cols, fmt.Sprintf("%d-node Hexagonal Grid (%dx%d)", n, rows, cols),
				func(r, c int) []Coord { offs := HexNeighborOffsets(r); return around(r, c, offs[:]) })},
			{vn, gridReference(t, rows, cols, fmt.Sprintf("%d-node Grid (%dx%d, von Neumann)", n, rows, cols),
				func(r, c int) []Coord { return around(r, c, vonNeumann) })},
			{mo, gridReference(t, rows, cols, fmt.Sprintf("%d-node Grid (%dx%d, Moore)", n, rows, cols),
				func(r, c int) []Coord { return around(r, c, moore) })},
		} {
			got, want := tc.got, tc.want
			if got.Name != want.Name {
				t.Errorf("%dx%d: Name %q, want %q", rows, cols, got.Name, want.Name)
			}
			if got.EdgeWeight != nil || got.VertexWeight != nil {
				t.Errorf("%s: weights materialized", got.Name)
			}
			if !slices.Equal(got.Coords, want.Coords) {
				t.Errorf("%s: Coords differ from the AddEdge build", got.Name)
			}
			same := func() bool {
				return slices.EqualFunc(got.Adj, want.Adj, func(a, b []NodeID) bool { return slices.Equal(a, b) })
			}
			if !same() {
				t.Fatalf("%s: Adj differs from the AddEdge build", got.Name)
			}
			for v, adj := range got.Adj {
				grown := adj
				for len(grown) <= cap(adj) {
					grown = append(grown, -1)
				}
				if !same() {
					t.Fatalf("%s: appending to vertex %d's list wrote into another list", got.Name, v)
				}
			}
		}
	}
}

// TestGridGeneratorsAllocateNoListPerVertex bounds what a 32x32 grid costs:
// the Graph, its list headers, one adjacency backing array, the
// coordinates and the name — nothing per vertex.
func TestGridGeneratorsAllocateNoListPerVertex(t *testing.T) {
	for _, gen := range []func() (*Graph, error){
		func() (*Graph, error) { return HexGrid(32, 32) },
		func() (*Graph, error) { return Grid(32, 32, false) },
		func() (*Graph, error) { return Grid(32, 32, true) },
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := gen(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("a 1024-vertex grid made %.0f allocations, want at most 16", allocs)
		}
	}
}
