package topology

import (
	"math/bits"
	"testing"
)

func TestHypercubeValid(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 16, 24} {
		n, err := Hypercube(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("procs=%d: %v", p, err)
		}
		if n.Procs() != p {
			t.Fatalf("procs=%d: Procs()=%d", p, n.Procs())
		}
	}
	if _, err := Hypercube(0); err == nil {
		t.Fatal("Hypercube(0) accepted")
	}
}

func TestHypercubeCostIsHammingDistance(t *testing.T) {
	n, err := Hypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cost(0, 7) != 3 {
		t.Fatalf("cost(0,7) = %g, want 3", n.Cost(0, 7))
	}
	if n.Cost(5, 4) != 1 {
		t.Fatalf("cost(5,4) = %g, want 1", n.Cost(5, 4))
	}
}

func TestUniformValid(t *testing.T) {
	n, err := Uniform(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Cost(1, 4) != 1 || n.Cost(2, 2) != 0 {
		t.Fatal("uniform link costs wrong")
	}
	if _, err := Uniform(-1); err == nil {
		t.Fatal("Uniform(-1) accepted")
	}
}

func TestHeterogeneousGrid(t *testing.T) {
	n, err := HeterogeneousGrid(8, 2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Speed[0] != 1 || n.Speed[7] != 2.5 {
		t.Fatalf("speeds %v", n.Speed)
	}
	if n.Cost(0, 1) != 1 || n.Cost(0, 7) != 10 {
		t.Fatal("link costs wrong")
	}
	if _, err := HeterogeneousGrid(4, 0, 1); err == nil {
		t.Fatal("accepted slowFactor=0")
	}
	if _, err := HeterogeneousGrid(4, 1, -1); err == nil {
		t.Fatal("accepted negative wanCost")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	n, _ := Uniform(3)
	n.Link = func(p, q int) float64 { return float64(1 + 4*p) } // (0,1) costs 1, (1,0) costs 5
	if err := n.Validate(); err == nil {
		t.Fatal("missed asymmetric cost")
	}
	n, _ = Uniform(3)
	n.Speed[2] = 0
	if err := n.Validate(); err == nil {
		t.Fatal("missed zero speed")
	}
	n, _ = Uniform(3)
	n.Link = func(p, q int) float64 { return -1 }
	if err := n.Validate(); err == nil {
		t.Fatal("missed negative cost")
	}
	n, _ = Uniform(3)
	n.Link = nil
	if err := n.Validate(); err == nil {
		t.Fatal("missed nil Link")
	}
}

// TestClosedFormAtEveryScale is the one-form contract: every constructor
// returns a closed-form Link, so a network validates, prices its farthest
// id pair to the hand-computed value and costs a handful of allocations —
// no per-pair set-up — at 96 processors and at 16384 alike.
func TestClosedFormAtEveryScale(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(procs int) (*Network, error)
		// far[i] is the hand-computed Cost(0, procs-1) at sizes[i].
		far [4]float64
	}{
		// Set bits of 95, 1023, 1024 and 16383.
		{"hypercube", Hypercube, [4]float64{6, 10, 1, 14}},
		// Corner to corner of the 8x12, 32x32, 25x41 and 128x128 Dims grids.
		{"mesh2d", Mesh2D, [4]float64{7 + 11, 31 + 31, 24 + 40, 127 + 127}},
		// 2l-1 for the lowest common 4-ary switch at levels 4, 5, 6 and 7.
		{"fattree", func(procs int) (*Network, error) { return FatTree(procs, 4) }, [4]float64{7, 9, 11, 13}},
		{"uniform", Uniform, [4]float64{1, 1, 1, 1}},
		// Processors 0 and procs-1 always sit in opposite halves.
		{"hetgrid", func(procs int) (*Network, error) { return HeterogeneousGrid(procs, 2, 10) }, [4]float64{10, 10, 10, 10}},
	} {
		for i, procs := range []int{96, 1024, 1025, 16384} {
			n, err := tc.build(procs)
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, procs, err)
			}
			if err := n.Validate(); err != nil {
				t.Errorf("%s/%d: %v", tc.name, procs, err)
			}
			if n.Procs() != procs {
				t.Errorf("%s/%d: Procs() = %d", tc.name, procs, n.Procs())
			}
			if got := n.Cost(0, procs-1); got != tc.far[i] || n.Cost(procs-1, 0) != got {
				t.Errorf("%s/%d: Cost(0,%d) = %g, want %g", tc.name, procs, procs-1, got, tc.far[i])
			}
			if got := n.Cost(procs-1, procs-1); got != 0 {
				t.Errorf("%s/%d: diagonal costs %g", tc.name, procs, got)
			}
			if allocs := testing.AllocsPerRun(5, func() { tc.build(procs) }); allocs > 8 {
				t.Errorf("%s/%d: construction allocates %v objects, want <= 8", tc.name, procs, allocs)
			}
		}
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	// Consecutive gray codes differ in exactly one bit.
	for i := 0; i < 255; i++ {
		d := GrayCode(i) ^ GrayCode(i+1)
		if bits.OnesCount(uint(d)) != 1 {
			t.Fatalf("GrayCode(%d) and GrayCode(%d) differ in %d bits", i, i+1, bits.OnesCount(uint(d)))
		}
	}
}

func TestGrayCodeBijectiveOnPowerOfTwo(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		g := GrayCode(i)
		if g < 0 || g >= 64 {
			t.Fatalf("GrayCode(%d) = %d out of range", i, g)
		}
		if seen[g] {
			t.Fatalf("GrayCode not injective at %d", i)
		}
		seen[g] = true
	}
}

func TestMeshToHypercubeAdjacency(t *testing.T) {
	// For power-of-two meshes, mesh neighbors map to hypercube neighbors
	// (Hamming distance 1).
	const rows, cols = 4, 8
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p, err := MeshToHypercube(r, c, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if r+1 < rows {
				q, _ := MeshToHypercube(r+1, c, rows, cols)
				if bits.OnesCount(uint(p^q)) != 1 {
					t.Fatalf("(%d,%d)-(%d,%d): %d vs %d not hypercube-adjacent", r, c, r+1, c, p, q)
				}
			}
			if c+1 < cols {
				q, _ := MeshToHypercube(r, c+1, rows, cols)
				if bits.OnesCount(uint(p^q)) != 1 {
					t.Fatalf("(%d,%d)-(%d,%d): %d vs %d not hypercube-adjacent", r, c, r, c+1, p, q)
				}
			}
		}
	}
}

func TestMeshToHypercubeBijective(t *testing.T) {
	const rows, cols = 4, 4
	seen := map[int]bool{}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p, err := MeshToHypercube(r, c, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p >= rows*cols || seen[p] {
				t.Fatalf("embedding not bijective at (%d,%d) -> %d", r, c, p)
			}
			seen[p] = true
		}
	}
}

func TestMeshToHypercubeBounds(t *testing.T) {
	if _, err := MeshToHypercube(4, 0, 4, 4); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := MeshToHypercube(0, -1, 4, 4); err == nil {
		t.Fatal("accepted negative col")
	}
	if p, err := MeshToHypercube(0, 0, 1, 1); err != nil || p != 0 {
		t.Fatalf("1x1 mesh: %d, %v", p, err)
	}
}

func TestDims(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4}, 6: {2, 3}, 12: {3, 4}, 7: {1, 7},
	}
	for procs, want := range cases {
		r, c, err := Dims(procs)
		if err != nil {
			t.Fatal(err)
		}
		if r != want[0] || c != want[1] {
			t.Errorf("Dims(%d) = (%d,%d), want %v", procs, r, c, want)
		}
		if r*c != procs {
			t.Errorf("Dims(%d) product %d", procs, r*c)
		}
	}
	if _, _, err := Dims(0); err == nil {
		t.Fatal("Dims(0) accepted")
	}
}
