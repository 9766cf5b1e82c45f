package balance

import (
	"fmt"
	"math/bits"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/topology"
)

// registry is the name → constructor table behind the scenario balancer
// axis. Its order is the order Names reports and error messages list. A
// constructor sees the run's interconnect name and processor count; only
// the hierarchical balancer reads them.
var registry = []struct {
	name string
	new  func(network string, procs int) platform.Balancer
}{
	{"none", func(string, int) platform.Balancer { return nil }},
	{"centralized", func(string, int) platform.Balancer { return &CentralizedHeuristic{} }},
	{"centralized-strict", func(string, int) platform.Balancer { return &CentralizedHeuristic{StrictAllNeighbors: true} }},
	{"diffusion", func(string, int) platform.Balancer { return &Diffusion{} }},
	{"worksteal", func(string, int) platform.Balancer { return &WorkStealing{} }},
	{"hierarchical", func(network string, procs int) platform.Balancer {
		return &Hierarchical{Clusters: ClustersFor(network, procs)}
	}},
	{"predictive", func(string, int) platform.Balancer { return &Predictive{} }},
}

// Names returns the registered balancer names; "none" disables dynamic
// balancing.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// constructor returns the registered constructor of name, or nil.
func constructor(name string) func(network string, procs int) platform.Balancer {
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

// New resolves a registered name to a balancer for a run on the named
// interconnect at procs processors; "none" resolves to nil. Network "" or
// procs < 1 leave the hierarchical balancer on its topology-agnostic
// BlockClusters.
func New(name, network string, procs int) (platform.Balancer, error) {
	if mk := constructor(name); mk != nil {
		return mk(network, procs), nil
	}
	return nil, fmt.Errorf("balance: unknown balancer %q (known: %v)", name, Names())
}

// ClustersFor derives the hierarchical balancer's cluster map from a
// named interconnect: fat-tree leaves group into pods, the heterogeneous
// grid splits into its fast and slow islands, the 2-D mesh into its four
// quadrants, and the hypercube into half-dimension subcubes. Unknown or
// structureless networks (uniform) fall back to contiguous rank blocks.
// The map is pure data — a function of (network, procs) only — so runs
// remain deterministic.
func ClustersFor(network string, procs int) []int {
	if procs < 1 {
		return nil
	}
	out := make([]int, procs)
	switch network {
	case netmodel.NameFatTree:
		for r := range out {
			out[r] = r / netmodel.DefaultFatTreeArity
		}
	case netmodel.NameHetGrid:
		half := procs / 2
		for r := range out {
			if half > 0 && r >= half {
				out[r] = 1
			}
		}
	case netmodel.NameMesh2D:
		rows, cols, err := topology.Dims(procs)
		if err != nil {
			return BlockClusters(procs)
		}
		halfR, halfC := (rows+1)/2, (cols+1)/2
		for r := range out {
			out[r] = (r/cols/halfR)*2 + (r%cols)/halfC
		}
	case netmodel.NameHypercube:
		dims := bits.Len(uint(procs - 1))
		low := (dims + 1) / 2
		for r := range out {
			out[r] = r >> low
		}
	default:
		return BlockClusters(procs)
	}
	return out
}
