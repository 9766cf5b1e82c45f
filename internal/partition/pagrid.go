package partition

import (
	"fmt"
	"math/rand"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/topology"
)

// PaGrid is a processor-network-aware mapper in the style of PaGrid
// [WA04, HAB06]. Unlike Metis it consumes a weighted processor graph
// (relative speeds and link costs) and the Rref parameter — "the ratio of
// communication time to the computation time per node in the application
// graph" — and minimizes *estimated execution time* of the mapping rather
// than raw edge-cut:
//
//	ET(p) = Speed[p] * work(p) + Rref * Σ_{cut edges (v,u), v∈p} w(v,u) * Cost(p, part[u])
//	cost  = max_p ET(p)
//
// The implementation seeds with a Multilevel edge-cut partition and then
// runs estimated-time refinement passes that move boundary vertices (and,
// for heterogeneous networks, swaps part labels) to reduce the makespan.
// The thesis uses Rref = 0.45 for all its graph topologies.
type PaGrid struct {
	// Rref is the communication/computation time ratio (default 0.45, the
	// paper's setting).
	Rref float64
	// Seed makes the refinement deterministic.
	Seed int64
}

// etPasses bounds estimated-time refinement.
const etPasses = 12

// Name implements Partitioner.
func (p *PaGrid) Name() string { return "PaGrid" }

func (p *PaGrid) rref() float64 {
	if p.Rref <= 0 {
		return 0.45
	}
	return p.Rref
}

// Partition implements Partitioner. net must be non-nil: PaGrid is defined
// by its use of the processor network graph.
func (p *PaGrid) Partition(g *graph.Graph, net *topology.Network, k int) ([]int, error) {
	if net == nil {
		return nil, fmt.Errorf("partition: PaGrid requires a processor network graph")
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if net.Procs() < k {
		return nil, fmt.Errorf("partition: network has %d processors, need %d", net.Procs(), k)
	}
	w, part, err := (&Multilevel{Seed: p.Seed}).partitionCSR(g, k)
	if err != nil || k == 1 {
		return part, err
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5a5a5a5a))
	p.refineEstimatedTime(w, part, net, k, rng)
	if err := Validate(g, part, k); err != nil {
		return nil, fmt.Errorf("partition: internal error: %w", err)
	}
	return part, nil
}

// estTimes returns the estimated execution time of each processor under
// the current mapping.
func (p *PaGrid) estTimes(g *wgraph, part []int, net *topology.Network, k int) []float64 {
	rref := p.rref()
	et := make([]float64, k)
	for v := 0; v < g.n; v++ {
		pv := part[v]
		et[pv] += net.Speed[pv] * float64(g.vw[v])
		for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
			if pu := part[g.adjncy[j]]; pu != pv {
				et[pv] += rref * float64(g.adjw[j]) * net.Cost(pv, pu)
			}
		}
	}
	return et
}

// refineEstimatedTime greedily moves boundary vertices off the
// estimated-time-critical processor when the move reduces the makespan.
func (p *PaGrid) refineEstimatedTime(g *wgraph, part []int, net *topology.Network, k int, rng *rand.Rand) {
	rref := p.rref()
	counts := make([]int, k)
	for _, q := range part {
		counts[q]++
	}
	var cands []int
	order := make([]int, g.n)
	for pass := 0; pass < etPasses; pass++ {
		et := p.estTimes(g, part, net, k)
		cur := slices.Max(et)
		improved := false
		fillPerm(rng, order)
		for _, v := range order {
			from := part[v]
			// Only vertices on the critical processor (within 1%) are
			// worth moving.
			if et[from] < cur*0.99 {
				continue
			}
			// Candidate destinations: parts adjacent to v, plus the
			// fastest underloaded part (helps heterogeneous networks where
			// the right move may not be along an edge). Tried in ascending
			// order, so equally good destinations resolve to the lowest
			// part id on every run.
			light := from
			for q := 0; q < k; q++ {
				if et[q] < et[light] {
					light = q
				}
			}
			cands = append(cands[:0], light)
			for _, u := range g.nbrs(v) {
				if part[u] != from {
					cands = append(cands, part[u])
				}
			}
			slices.Sort(cands)
			bestTo := -1
			bestMax := cur
			for i, to := range cands {
				if to == from || counts[from] == 1 || (i > 0 && to == cands[i-1]) {
					continue
				}
				nf, nt := p.moveDelta(g, part, net, v, from, to, rref, et)
				newMax := nf
				if nt > newMax {
					newMax = nt
				}
				// The makespan may be held by a third processor; moving v
				// also changes its neighbors' comm terms, so recompute the
				// global max lazily only when the local pair improves.
				if newMax < bestMax {
					bestTo, bestMax = to, newMax
				}
			}
			if bestTo == -1 {
				continue
			}
			old := part[v]
			part[v] = bestTo
			counts[old]--
			counts[bestTo]++
			newEt := p.estTimes(g, part, net, k)
			if slices.Max(newEt) < cur-1e-12 {
				et = newEt
				cur = slices.Max(et)
				improved = true
			} else {
				part[v] = old // revert: global makespan did not improve
				counts[old]++
				counts[bestTo]--
			}
		}
		if !improved {
			break
		}
	}
}

// moveDelta estimates the new ET of the source and destination processors
// if v moved from 'from' to 'to'.
func (p *PaGrid) moveDelta(g *wgraph, part []int, net *topology.Network, v, from, to int, rref float64, et []float64) (newFrom, newTo float64) {
	newFrom = et[from] - net.Speed[from]*float64(g.vw[v])
	newTo = et[to] + net.Speed[to]*float64(g.vw[v])
	for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
		pu := part[g.adjncy[j]]
		w := float64(g.adjw[j])
		if pu != from {
			newFrom -= rref * w * net.Cost(from, pu)
		}
		if pu != to {
			newTo += rref * w * net.Cost(to, pu)
		}
	}
	return newFrom, newTo
}

// EstimatedMakespan exposes the PaGrid cost function for tests and the
// experiment harness: the maximum per-processor estimated execution time
// of a mapping.
func (p *PaGrid) EstimatedMakespan(g *graph.Graph, part []int, net *topology.Network, k int) (float64, error) {
	if err := Validate(g, part, k); err != nil {
		return 0, err
	}
	if err := net.Validate(); err != nil {
		return 0, err
	}
	return slices.Max(p.estTimes(fromGraph(g), part, net, k)), nil
}
