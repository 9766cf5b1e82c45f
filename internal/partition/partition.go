// Package partition implements the static graph partitioners the thesis
// plugs into the iC2mpi platform:
//
//   - Multilevel: a from-scratch multilevel k-way partitioner in the style
//     of Metis [KK98] (heavy-edge matching coarsening, greedy graph-growing
//     initial partition, boundary FM refinement).
//   - PaGrid: a grid-aware mapper in the style of PaGrid [WA04, HAB06] that
//     consumes a weighted processor network graph and an Rref
//     communication/computation ratio and minimizes estimated execution
//     time rather than raw edge-cut.
//   - RowBand, ColumnBand, RectBand: geometric band partitioners over the
//     planar coordinates of mesh graphs.
//   - BFGrayCode: the fine-grained gray-code mesh-to-hypercube embedding
//     the original battlefield simulator hard-coded [DMP98].
//   - Block, RoundRobin: trivial baselines.
//
// All partitioners are deterministic for a fixed seed.
package partition

import (
	"fmt"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/topology"
)

// Partitioner maps the vertices of an application graph onto k processors.
// net describes the processor network; partitioners that ignore the network
// (like Metis) accept nil.
type Partitioner interface {
	// Name identifies the partitioner in reports ("Metis", "PaGrid", ...).
	Name() string
	// Partition returns a vertex-to-processor assignment of length
	// g.NumVertices() with every value in [0, k).
	Partition(g *graph.Graph, net *topology.Network, k int) ([]int, error)
}

// registry is the name → constructor table behind every name-keyed caller:
// the scenario partitioner axis, cmd/ic2mpi and cmd/partgraph. Its order is
// the order Names reports and error messages list.
var registry = []struct {
	name string
	new  func() Partitioner
}{
	{"metis", func() Partitioner { return &Multilevel{Seed: 1} }},
	{"pagrid", func() Partitioner { return &PaGrid{Rref: 0.45, Seed: 1} }},
	{"rowband", func() Partitioner { return RowBand{} }},
	{"colband", func() Partitioner { return ColumnBand{} }},
	{"rectband", func() Partitioner { return RectBand{} }},
	{"rcb", func() Partitioner { return RCB{} }},
	{"bf", func() Partitioner { return BFGrayCode{} }},
}

// Names returns the registered partitioner names.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// constructor returns the registered constructor of name, or nil.
func constructor(name string) func() Partitioner {
	for _, r := range registry {
		if r.name == name {
			return r.new
		}
	}
	return nil
}

// Known reports whether name is registered, constructing nothing: the
// per-cell validation in scenario.Normalize runs it on the daemon's hot
// path.
func Known(name string) bool { return constructor(name) != nil }

// New returns a fresh instance of the named partitioner at the settings
// every pinned result was measured with: seed 1, and the paper's
// Rref = 0.45 for PaGrid.
func New(name string) (Partitioner, error) {
	if mk := constructor(name); mk != nil {
		return mk(), nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (known: %v)", name, Names())
}

// DefaultNetwork returns the processor network pt maps onto when the caller
// has none of its own: the k-processor hypercube — the paper's Origin 2000
// — for PaGrid, nil for the partitioners that ignore the network.
func DefaultNetwork(pt Partitioner, k int) (*topology.Network, error) {
	if _, ok := pt.(*PaGrid); !ok {
		return nil, nil
	}
	return topology.Hypercube(k)
}

// Validate checks that part is a legal assignment of g's vertices to k
// processors. The platform calls this on every plug-in's output before
// trusting it (failure injection tests rely on this).
func Validate(g *graph.Graph, part []int, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if len(part) != g.NumVertices() {
		return fmt.Errorf("partition: assignment has %d entries for %d vertices", len(part), g.NumVertices())
	}
	for v, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("partition: vertex %d assigned to processor %d outside [0,%d)", v, p, k)
		}
	}
	return nil
}

// Quality summarizes a partition for reports and tests.
type Quality struct {
	EdgeCut     int
	PartWeights []int
	Imbalance   float64 // max part weight * k / total weight; 1.0 is perfect
}

// Evaluate computes the quality metrics of a partition.
func Evaluate(g *graph.Graph, part []int, k int) (Quality, error) {
	if err := Validate(g, part, k); err != nil {
		return Quality{}, err
	}
	cut, err := g.EdgeCut(part)
	if err != nil {
		return Quality{}, err
	}
	w, err := g.PartWeights(part, k)
	if err != nil {
		return Quality{}, err
	}
	bal, err := g.Imbalance(part, k)
	if err != nil {
		return Quality{}, err
	}
	return Quality{EdgeCut: cut, PartWeights: w, Imbalance: bal}, nil
}

// Block assigns contiguous runs of vertex IDs to processors: vertex v goes
// to processor v*k/n. The simplest static decomposition, used as a baseline
// and as the fallback initial partition.
type Block struct{}

// Name implements Partitioner.
func (Block) Name() string { return "Block" }

// Partition implements Partitioner.
func (Block) Partition(g *graph.Graph, _ *topology.Network, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: Block needs k >= 1, got %d", k)
	}
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = v * k / n
	}
	return part, nil
}

// RoundRobin deals vertices cyclically: vertex v goes to processor v mod k.
// Maximizes edge-cut on locality-rich graphs; a deliberately bad baseline
// that stresses the communication path.
type RoundRobin struct{}

// Name implements Partitioner.
func (RoundRobin) Name() string { return "RoundRobin" }

// Partition implements Partitioner.
func (RoundRobin) Partition(g *graph.Graph, _ *topology.Network, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: RoundRobin needs k >= 1, got %d", k)
	}
	part := make([]int, g.NumVertices())
	for v := range part {
		part[v] = v % k
	}
	return part, nil
}
