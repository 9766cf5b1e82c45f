package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/topology"
)

func hex(t *testing.T, rows, cols int) *graph.Graph {
	t.Helper()
	g, err := graph.HexGrid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func rnd(t *testing.T, n int, p float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Random(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allPartitioners returns every partitioner that works without coordinates.
func allPartitioners() []Partitioner {
	return []Partitioner{
		Block{},
		RoundRobin{},
		&Multilevel{Seed: 1},
		&PaGrid{Seed: 1},
	}
}

// geomPartitioners returns partitioners requiring coordinates.
func geomPartitioners() []Partitioner {
	return []Partitioner{RowBand{}, ColumnBand{}, RectBand{}, BFGrayCode{}}
}

func net(t *testing.T, k int) *topology.Network {
	t.Helper()
	n, err := topology.Hypercube(k)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAllPartitionersProduceValidPartitions(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hex32":    hex(t, 4, 8),
		"hex96":    hex(t, 8, 12),
		"random64": rnd(t, 64, 0.065, 6401),
	}
	for gname, g := range graphs {
		for _, k := range []int{1, 2, 4, 8, 16} {
			for _, p := range allPartitioners() {
				part, err := p.Partition(g, net(t, k), k)
				if err != nil {
					t.Fatalf("%s on %s k=%d: %v", p.Name(), gname, k, err)
				}
				if err := Validate(g, part, k); err != nil {
					t.Fatalf("%s on %s k=%d: %v", p.Name(), gname, k, err)
				}
			}
		}
	}
}

func TestGeometricPartitionersOnHexGrids(t *testing.T) {
	g := hex(t, 8, 8)
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, p := range geomPartitioners() {
			part, err := p.Partition(g, nil, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			if err := Validate(g, part, k); err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			q, err := Evaluate(g, part, k)
			if err != nil {
				t.Fatal(err)
			}
			// Bands over a uniform mesh must be nearly perfectly balanced.
			if p.Name() != "BF Partition" && q.Imbalance > 1.30 {
				t.Errorf("%s k=%d imbalance %.2f", p.Name(), k, q.Imbalance)
			}
		}
	}
}

func TestGeometricPartitionersRequireCoords(t *testing.T) {
	g := rnd(t, 10, 0.3, 1)
	for _, p := range geomPartitioners() {
		if _, err := p.Partition(g, nil, 2); err == nil {
			t.Errorf("%s accepted a graph without coordinates", p.Name())
		}
	}
}

func TestMultilevelBalanced(t *testing.T) {
	for _, tc := range []struct {
		g *graph.Graph
		k int
	}{
		{hex(t, 8, 8), 2}, {hex(t, 8, 8), 4}, {hex(t, 8, 8), 8},
		{hex(t, 32, 32), 16}, {rnd(t, 64, 0.065, 6401), 8},
	} {
		m := &Multilevel{Seed: 7}
		part, err := m.Partition(tc.g, nil, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Evaluate(tc.g, part, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if q.Imbalance > 1.35 {
			t.Errorf("%s k=%d: imbalance %.3f too high (weights %v)", tc.g.Name, tc.k, q.Imbalance, q.PartWeights)
		}
		for p, w := range q.PartWeights {
			if w == 0 {
				t.Errorf("%s k=%d: part %d empty", tc.g.Name, tc.k, p)
			}
		}
	}
}

func TestMultilevelBeatsRoundRobinOnCut(t *testing.T) {
	// On locality-rich meshes a multilevel partitioner must produce a far
	// smaller cut than cyclic dealing.
	g := hex(t, 32, 32)
	const k = 8
	ml, err := (&Multilevel{Seed: 3}).Partition(g, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobin{}.Partition(g, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	mlq, _ := Evaluate(g, ml, k)
	rrq, _ := Evaluate(g, rr, k)
	if mlq.EdgeCut*3 > rrq.EdgeCut {
		t.Errorf("multilevel cut %d not much better than round-robin cut %d", mlq.EdgeCut, rrq.EdgeCut)
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	g := hex(t, 8, 12)
	a, err := (&Multilevel{Seed: 11}).Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Multilevel{Seed: 11}).Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
}

func TestMultilevelK1AndErrors(t *testing.T) {
	g := hex(t, 2, 2)
	part, err := (&Multilevel{}).Partition(g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must assign everything to 0")
		}
	}
	if _, err := (&Multilevel{}).Partition(g, nil, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (&Multilevel{}).Partition(graph.New(0), nil, 2); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPaGridRequiresNetwork(t *testing.T) {
	g := hex(t, 4, 8)
	if _, err := (&PaGrid{}).Partition(g, nil, 2); err == nil {
		t.Fatal("PaGrid accepted nil network")
	}
	small := net(t, 2)
	if _, err := (&PaGrid{}).Partition(g, small, 4); err == nil {
		t.Fatal("PaGrid accepted undersized network")
	}
}

func TestPaGridImprovesMakespanOnHeterogeneousNetwork(t *testing.T) {
	// On a heterogeneous network, PaGrid's estimated makespan must beat a
	// network-oblivious Metis partition's makespan.
	g := hex(t, 8, 8)
	const k = 4
	netH, err := topology.HeterogeneousGrid(k, 3.0, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	pg := &PaGrid{Seed: 5}
	pgPart, err := pg.Partition(g, netH, k)
	if err != nil {
		t.Fatal(err)
	}
	mlPart, err := (&Multilevel{Seed: 5}).Partition(g, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	pgCost, err := pg.EstimatedMakespan(g, pgPart, netH, k)
	if err != nil {
		t.Fatal(err)
	}
	mlCost, err := pg.EstimatedMakespan(g, mlPart, netH, k)
	if err != nil {
		t.Fatal(err)
	}
	if pgCost > mlCost+1e-9 {
		t.Errorf("PaGrid makespan %.2f worse than Metis makespan %.2f on heterogeneous net", pgCost, mlCost)
	}
}

func TestRowColumnBandShapes(t *testing.T) {
	g := hex(t, 8, 8)
	row, err := RowBand{}.Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ColumnBand{}.Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		c := g.Coords[v]
		if want := c.Row / 2; row[v] != want {
			t.Fatalf("row band: (%d,%d) -> %d, want %d", c.Row, c.Col, row[v], want)
		}
		if want := c.Col / 2; col[v] != want {
			t.Fatalf("column band: (%d,%d) -> %d, want %d", c.Row, c.Col, col[v], want)
		}
	}
}

func TestRectBandShape(t *testing.T) {
	g := hex(t, 8, 8)
	part, err := RectBand{}.Partition(g, nil, 4) // 2x2 tiles
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		c := g.Coords[v]
		want := (c.Row/4)*2 + c.Col/4
		if part[v] != want {
			t.Fatalf("rect band: (%d,%d) -> %d, want %d", c.Row, c.Col, part[v], want)
		}
	}
}

func TestBFGrayCodeScattersNeighbors(t *testing.T) {
	// The defining property: a hex and its six neighbors land on different
	// processors (for k=8 and k=16 on a 32x32 mesh).
	g := hex(t, 32, 32)
	for _, k := range []int{8, 16} {
		part, err := BFGrayCode{}.Partition(g, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Adj[v] {
				if part[v] == part[u] {
					cv, cu := g.Coords[v], g.Coords[u]
					t.Fatalf("k=%d: neighbors (%d,%d) and (%d,%d) share processor %d",
						k, cv.Row, cv.Col, cu.Row, cu.Col, part[v])
				}
			}
		}
	}
}

func TestBFGrayCodeMaximizesCutVsMetis(t *testing.T) {
	g := hex(t, 32, 32)
	const k = 8
	bf, err := BFGrayCode{}.Partition(g, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := (&Multilevel{Seed: 2}).Partition(g, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	bfq, _ := Evaluate(g, bf, k)
	mlq, _ := Evaluate(g, ml, k)
	if bfq.EdgeCut <= mlq.EdgeCut {
		t.Errorf("BF cut %d should exceed Metis cut %d", bfq.EdgeCut, mlq.EdgeCut)
	}
	// Every edge is cut under fine-grained scattering.
	if bfq.EdgeCut != g.NumEdges() {
		t.Errorf("BF cut %d, want all %d edges cut", bfq.EdgeCut, g.NumEdges())
	}
}

func TestBlockAndRoundRobinAndSingle(t *testing.T) {
	g := hex(t, 4, 8)
	b, err := Block{}.Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[31] != 3 {
		t.Fatalf("block ends: %d %d", b[0], b[31])
	}
	r, err := RoundRobin{}.Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r[5] != 1 || r[6] != 2 {
		t.Fatalf("round robin: %d %d", r[5], r[6])
	}
	// The single-processor case: both put every vertex on processor 0.
	for _, pt := range []Partitioner{Block{}, RoundRobin{}} {
		s, err := pt.Partition(g, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, s, 1); err != nil {
			t.Fatalf("%s at k=1: %v", pt.Name(), err)
		}
	}
	if _, err := (Block{}).Partition(g, nil, 0); err == nil {
		t.Fatal("Block accepted k=0")
	}
	if _, err := (RoundRobin{}).Partition(g, nil, -1); err == nil {
		t.Fatal("RoundRobin accepted k<0")
	}
}

func TestValidateRejectsBadAssignments(t *testing.T) {
	g := hex(t, 2, 2)
	if err := Validate(g, []int{0, 0, 0}, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	if err := Validate(g, []int{0, 0, 0, 5}, 2); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
	if err := Validate(g, []int{0, 0, 0, 0}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// Property: Multilevel output is always a valid partition with no part
// empty (when n >= k), across random graphs, seeds and k.
func TestQuickMultilevelValid(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%80) + 16
		k := int(kRaw%8) + 1
		g, err := graph.Random(n, 0.1, seed)
		if err != nil {
			return false
		}
		part, err := (&Multilevel{Seed: seed}).Partition(g, nil, k)
		if err != nil {
			return false
		}
		if Validate(g, part, k) != nil {
			return false
		}
		counts := make([]int, k)
		for _, p := range part {
			counts[p]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: band partitioners produce parts whose sizes differ by at most
// the row/column granularity of the mesh.
func TestQuickBandBalance(t *testing.T) {
	f := func(rRaw, cRaw, kRaw uint8) bool {
		rows := int(rRaw%12) + 4
		cols := int(cRaw%12) + 4
		k := int(kRaw%6) + 1
		g, err := graph.HexGrid(rows, cols)
		if err != nil {
			return false
		}
		for _, p := range []Partitioner{RowBand{}, ColumnBand{}} {
			part, err := p.Partition(g, nil, k)
			if err != nil {
				return false
			}
			q, err := Evaluate(g, part, k)
			if err != nil {
				return false
			}
			min, max := g.NumVertices(), 0
			for _, w := range q.PartWeights {
				if w < min {
					min = w
				}
				if w > max {
					max = w
				}
			}
			if max-min > max3(rows, cols, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func TestEvaluateReportsQuality(t *testing.T) {
	g := hex(t, 4, 8)
	part, err := (&Multilevel{Seed: 1}).Partition(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Evaluate(g, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.EdgeCut <= 0 || q.Imbalance < 1.0 {
		t.Fatalf("suspicious quality %+v", q)
	}
	sum := 0
	for _, w := range q.PartWeights {
		sum += w
	}
	if sum != g.NumVertices() {
		t.Fatalf("part weights sum %d, want %d", sum, g.NumVertices())
	}
}

func ExampleEvaluate() {
	g, _ := graph.HexGrid(4, 8)
	part, _ := RowBand{}.Partition(g, nil, 4)
	q, _ := Evaluate(g, part, 4)
	fmt.Println(q.PartWeights)
	// Output: [8 8 8 8]
}
