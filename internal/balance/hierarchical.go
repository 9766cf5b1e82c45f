package balance

import (
	"math"
	"sort"

	"ic2mpi/internal/platform"
)

// Hierarchical balances in two passes that mirror a clustered machine:
// first each cluster diffuses load among its own processors (cheap local
// links — a fat-tree pod, a hetgrid island, a mesh quadrant), then a
// single global pass moves work out of clusters whose mean load exceeds
// the machine mean (the expensive cross-cluster links carry at most one
// task per overloaded cluster per invocation). The cluster map is plain
// data, so plans stay a pure deterministic function of the processor
// graph; ClustersFor derives maps from the active interconnect topology.
// Both passes act on a load above the (cluster or global) mean by
// defaultTolerance.
type Hierarchical struct {
	// Clusters[p] is processor p's cluster id (ids need not be dense). A
	// nil or wrongly-sized map falls back to BlockClusters.
	Clusters []int
}

// Name implements platform.Balancer.
func (h *Hierarchical) Name() string { return "Hierarchical" }

// BlockClusters is the topology-agnostic default cluster map: contiguous
// rank blocks of ~sqrt(procs) processors, the shape that keeps both the
// cluster count and the cluster size sublinear.
func BlockClusters(procs int) []int {
	if procs < 1 {
		return nil
	}
	size := int(math.Ceil(math.Sqrt(float64(procs))))
	out := make([]int, procs)
	for r := range out {
		out[r] = r / size
	}
	return out
}

// Plan implements platform.Balancer.
func (h *Hierarchical) Plan(pg platform.ProcGraph) []platform.Pair {
	p := len(pg.Times)
	if p < 2 || len(pg.Comm) != p {
		return nil
	}
	clusters := h.Clusters
	if len(clusters) != p {
		clusters = BlockClusters(p)
	}
	paired := make([]bool, p)
	var pairs []platform.Pair

	// Cluster membership in deterministic (ascending id) order.
	members := map[int][]int{}
	var ids []int
	for r, c := range clusters {
		if members[c] == nil {
			ids = append(ids, c)
		}
		members[c] = append(members[c], r)
	}
	sort.Ints(ids)

	// Pass 1: intra-cluster diffusion against each cluster's own mean.
	for _, c := range ids {
		pairs = diffuse(pg.Times, pg.Comm, members[c], paired, pairs)
	}

	// Pass 2: one cross-cluster move per overloaded cluster. Clusters are
	// visited in decreasing mean-load order; the donor is the cluster's
	// most-loaded unpaired processor, the target its least-loaded
	// communicating processor in an under-mean cluster.
	globalMean := meanLoad(pg.Times, ranks(p))
	if globalMean <= 0 {
		return pairs
	}
	clusterMean := map[int]float64{}
	for _, c := range ids {
		clusterMean[c] = meanLoad(pg.Times, members[c])
	}
	corder := append([]int(nil), ids...)
	sort.Slice(corder, func(a, b int) bool {
		if clusterMean[corder[a]] != clusterMean[corder[b]] {
			return clusterMean[corder[a]] > clusterMean[corder[b]]
		}
		return corder[a] < corder[b]
	})
	for _, c := range corder {
		if clusterMean[c] <= globalMean*(1+defaultTolerance) {
			break // sorted: nobody further is overloaded
		}
		donor := -1
		for _, r := range members[c] {
			if paired[r] {
				continue
			}
			if donor == -1 || pg.Times[r] > pg.Times[donor] {
				donor = r
			}
		}
		if donor == -1 || pg.Times[donor] <= globalMean {
			continue
		}
		idle := -1
		for j := 0; j < p; j++ {
			if clusters[j] == c || pg.Comm[donor][j] <= 0 || paired[j] {
				continue
			}
			if clusterMean[clusters[j]] >= globalMean || pg.Times[j] >= globalMean {
				continue
			}
			if idle == -1 || pg.Times[j] < pg.Times[idle] {
				idle = j
			}
		}
		if idle == -1 {
			continue
		}
		pairs = append(pairs, platform.Pair{Busy: donor, Idle: idle})
		paired[donor], paired[idle] = true, true
	}
	return pairs
}
