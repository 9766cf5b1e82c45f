package topology

import (
	"fmt"
	"math/bits"
)

// Network is a weighted processor graph: Procs processors with relative
// Speed (execution-time multiplier; 1.0 = reference processor) and a
// pairwise link cost (communication cost multiplier per unit of traffic).
// The thesis' PaGrid input "grid format" carries exactly this information.
//
// The link costs have one form at every processor count: the function
// Link. The constructors below return closed forms, so a network costs
// O(P) memory (its speeds) and no per-pair set-up; a processor graph given
// as a table m is
//
//	Link: func(p, q int) float64 { return m[p][q] }
type Network struct {
	// Name labels the network in reports.
	Name string
	// Speed[p] is processor p's relative execution-time multiplier: a
	// processor with Speed 2 takes twice as long per unit of work.
	Speed []float64
	// Link(p, q) is the relative cost of sending one unit of data between
	// the distinct processors p and q; symmetric and non-negative. For a
	// hypercube this is the Hamming distance between p and q
	// (store-and-forward hops). It is never asked about p == q: read costs
	// through Cost, which owns the zero diagonal.
	Link func(p, q int) float64
}

// Procs returns the number of processors.
func (n *Network) Procs() int { return len(n.Speed) }

// Cost returns the link cost between p and q: 0 on the diagonal, Link
// elsewhere.
func (n *Network) Cost(p, q int) float64 {
	if p == q {
		return 0
	}
	return n.Link(p, q)
}

// Validate checks the structural invariants of the network: positive
// speeds, and non-negative symmetric link costs on the sampled pairs.
func (n *Network) Validate() error {
	p := len(n.Speed)
	if p == 0 {
		return fmt.Errorf("topology: empty network")
	}
	for i, s := range n.Speed {
		if s <= 0 {
			return fmt.Errorf("topology: processor %d has non-positive speed %g", i, s)
		}
	}
	if n.Link == nil {
		return fmt.Errorf("topology: network has no Link function")
	}
	// Visiting all P² pairs is what the function form exists to avoid, so
	// at most 64 ids per side are sampled — which is every pair (stride 1)
	// below 64 processors.
	stride := p/64 + 1
	for i := 0; i < p; i += stride {
		for j := i + stride; j < p; j += stride {
			c := n.Link(i, j)
			if c < 0 {
				return fmt.Errorf("topology: negative link cost at (%d,%d)", i, j)
			}
			if c != n.Link(j, i) {
				return fmt.Errorf("topology: asymmetric link cost at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// homogeneous returns procs unit-speed processors priced by link.
func homogeneous(name string, procs int, link func(p, q int) float64) (*Network, error) {
	if procs < 1 {
		return nil, fmt.Errorf("topology: %s: procs must be >= 1", name)
	}
	speed := make([]float64, procs)
	for i := range speed {
		speed[i] = 1
	}
	return &Network{Name: name, Speed: speed, Link: link}, nil
}

// Hypercube returns a homogeneous hypercube network over procs processors.
// procs need not be a power of two: link cost between p and q is the
// Hamming distance of their ids, which is the routing distance on the
// enclosing hypercube (the Origin 2000's interconnect is hypercube-based).
func Hypercube(procs int) (*Network, error) {
	return homogeneous(fmt.Sprintf("%d-processor hypercube", procs), procs, func(p, q int) float64 {
		return float64(bits.OnesCount(uint(p ^ q)))
	})
}

// Mesh2D returns a homogeneous 2-D mesh network over procs processors:
// processor p sits at row p/cols, column p%cols of a Dims(procs) grid, and
// the link cost between two processors is their Manhattan distance — the
// store-and-forward hop count of dimension-ordered mesh routing.
func Mesh2D(procs int) (*Network, error) {
	rows, cols, err := Dims(procs)
	if err != nil {
		return nil, err
	}
	return homogeneous(fmt.Sprintf("%dx%d mesh", rows, cols), procs, func(p, q int) float64 {
		dr := p/cols - q/cols
		if dr < 0 {
			dr = -dr
		}
		dc := p%cols - q%cols
		if dc < 0 {
			dc = -dc
		}
		return float64(dr + dc)
	})
}

// FatTree returns a homogeneous fat-tree network over procs processors
// with the given switch arity (processors per leaf switch, and children
// per switch at every higher level). The link cost between p and q is
// 2l-1 where l is the level of their lowest common ancestor switch: 1
// inside a leaf switch, 3 one level up, 5 two levels up, and so on — the
// switch-hop count of up*-down* routing. Because a fat tree thickens its
// upper links, this counts latency hops only; bandwidth is uniform.
func FatTree(procs, arity int) (*Network, error) {
	if arity < 2 {
		return nil, fmt.Errorf("topology: FatTree needs arity >= 2, got %d", arity)
	}
	return homogeneous(fmt.Sprintf("%d-processor %d-ary fat tree", procs, arity), procs, func(p, q int) float64 {
		level := 1
		for p, q = p/arity, q/arity; p != q; p, q = p/arity, q/arity {
			level++
		}
		return float64(2*level - 1)
	})
}

// Uniform returns a fully connected homogeneous network with unit link
// costs — what Metis implicitly assumes ("Metis does not use processor
// network graph").
func Uniform(procs int) (*Network, error) {
	return homogeneous(fmt.Sprintf("%d-processor uniform network", procs), procs, func(p, q int) float64 {
		return 1
	})
}

// HeterogeneousGrid returns a two-cluster computational grid of the kind
// PaGrid targets: the first half of the processors are "fast" (speed 1),
// the rest run at slowFactor (>1 = slower); intra-cluster links cost 1,
// inter-cluster links cost wanCost. Used by the ablation experiments that
// show PaGrid's advantage growing with heterogeneity.
func HeterogeneousGrid(procs int, slowFactor, wanCost float64) (*Network, error) {
	if slowFactor <= 0 || wanCost < 0 {
		return nil, fmt.Errorf("topology: bad parameters slowFactor=%g wanCost=%g", slowFactor, wanCost)
	}
	half := procs / 2
	n, err := homogeneous(fmt.Sprintf("%d-processor heterogeneous grid", procs), procs, func(p, q int) float64 {
		if (p < half) == (q < half) {
			return 1
		}
		return wanCost
	})
	if err != nil {
		return nil, err
	}
	for p := max(half, 1); p < procs; p++ { // a lone processor is fast
		n.Speed[p] = slowFactor
	}
	return n, nil
}

// GrayCode returns the i-th binary reflected Gray code value.
func GrayCode(i int) int { return i ^ (i >> 1) }

// MeshToHypercube embeds position (r, c) of an R x C mesh into a hypercube
// of R*C processors using the classic gray-code row/column embedding: the
// processor id is GrayCode(r) concatenated with GrayCode(c). Mesh-adjacent
// cells map to hypercube-adjacent processors when R and C are powers of
// two. This is the embedding the original battlefield simulator [DMP98]
// hard-coded, reproduced here as the "BF Partition".
func MeshToHypercube(r, c, rows, cols int) (int, error) {
	if rows <= 0 || cols <= 0 || r < 0 || r >= rows || c < 0 || c >= cols {
		return 0, fmt.Errorf("topology: position (%d,%d) outside %dx%d mesh", r, c, rows, cols)
	}
	colBits := bits.Len(uint(cols - 1))
	if cols == 1 {
		colBits = 0
	}
	return GrayCode(r)<<colBits | GrayCode(c), nil
}

// Dims returns (rows, cols) with rows*cols == procs, rows and cols as
// close to square as possible with both powers of two when procs is a
// power of two. Used to shape processor meshes for the BF and rectangular
// band partitioners.
func Dims(procs int) (rows, cols int, err error) {
	if procs < 1 {
		return 0, 0, fmt.Errorf("topology: Dims needs procs >= 1, got %d", procs)
	}
	if procs&(procs-1) == 0 {
		// Power of two: split the exponent.
		e := bits.Len(uint(procs)) - 1
		rows = 1 << (e / 2)
		cols = procs / rows
		return rows, cols, nil
	}
	// General case: largest divisor <= sqrt(procs).
	best := 1
	for d := 1; d*d <= procs; d++ {
		if procs%d == 0 {
			best = d
		}
	}
	return best, procs / best, nil
}
