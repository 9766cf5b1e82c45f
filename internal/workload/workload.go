package workload

import (
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
)

// Grain sizes from the thesis: "A size of 0.3 ms is used for the fine
// grain and 3 ms is used for the coarse grain."
const (
	FineGrain   = 0.3e-3
	CoarseGrain = 3e-3
)

// GrainFunc returns the virtual compute cost of node id at iteration iter.
type GrainFunc func(id graph.NodeID, iter int) float64

// UniformGrain charges the same cost for every node at every iteration.
func UniformGrain(cost float64) GrainFunc {
	return func(graph.NodeID, int) float64 { return cost }
}

// Fig23Schedule reproduces the thesis' dynamic load imbalance generator
// (Fig. 23) for a graph of n nodes: iterations 1-10 run the first 50% of
// node IDs at coarse grain, iterations 11-20 the 25%-75% window, and
// iterations 21-30 the 50%-100% window; all other nodes (and iterations
// beyond 30) run at fine grain. "Each time the dynamic load balancer is
// invoked, we try and create an inertial load imbalance across the
// computational domain" — a static partitioner can never capture this.
func Fig23Schedule(n int, coarse, fine float64) GrainFunc {
	return func(id graph.NodeID, iter int) float64 {
		v := int(id)
		lo, hi := -1, -1
		switch {
		case iter <= 10:
			lo, hi = 0, n*50/100
		case iter <= 20:
			lo, hi = n*25/100, n*75/100
		case iter <= 30:
			lo, hi = n*50/100, n
		}
		if lo <= v && v < hi {
			return coarse
		}
		return fine
	}
}

// Averaging returns the thesis' generic node function: "each node computes
// the average of the data maintained by all its neighbors", with the grain
// injected by a dummy loop — here by returning the grain cost from g.
// The computation itself sums the node's and its neighbors' integer data
// and divides by the list length, operating on platform.IntData.
func Averaging(g GrainFunc) platform.NodeFunc {
	return func(id graph.NodeID, iter, _ int, self platform.NodeData, neighbors []platform.Neighbor) (platform.NodeData, float64) {
		sum := int64(self.(platform.IntData))
		for _, nb := range neighbors {
			sum += int64(nb.Data.(platform.IntData))
		}
		avg := sum / int64(len(neighbors)+1)
		return platform.IntData(avg), g(id, iter)
	}
}

// InitID initializes node data to the 1-based global ID, matching the
// thesis' InitializeGlobalDataList (globalID = i+1, data = i+1).
func InitID(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id) + 1) }
