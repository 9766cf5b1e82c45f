package balance

import (
	"slices"
	"sort"

	"ic2mpi/internal/platform"
)

// Diffusion is a Jostle-style diffusive load balancer [WC01], provided as
// a second third-party plug-in to demonstrate the platform's role as a
// load-balancing test bed (Goal 3 of the paper). Instead of the
// centralized heuristic's busy/idle classification against neighbors, it
// compares every processor against the global mean load and pairs the most
// overloaded processors with their least-loaded communicating neighbors —
// load diffuses along the processor graph's edges. A processor is
// overloaded when its load exceeds the mean by defaultTolerance.
type Diffusion struct{}

// Name implements platform.Balancer.
func (d *Diffusion) Name() string { return "Diffusion" }

// Plan implements platform.Balancer: one diffusion pass over all ranks on
// the gathered times.
func (d *Diffusion) Plan(pg platform.ProcGraph) []platform.Pair {
	p := len(pg.Times)
	if p < 2 || len(pg.Comm) != p {
		return nil
	}
	return diffuse(pg.Times, pg.Comm, ranks(p), make([]bool, p), nil)
}

// diffuse is the package's one diffusion pass, run by Diffusion over all
// ranks, by Predictive on forecast loads and by Hierarchical once per
// cluster. Among members (ascending ranks) it visits the processors whose
// load exceeds the members' mean by defaultTolerance, most loaded first and
// ties to the lower rank, and pairs each with its least-loaded
// communicating member below the mean (ties again to the lower rank).
// paired marks the processors some pair of this invocation already holds,
// across passes; a processor is in at most one pair. The pairs found are
// appended to pairs.
func diffuse(loads []float64, comm [][]int, members []int, paired []bool, pairs []platform.Pair) []platform.Pair {
	if len(members) < 2 {
		return pairs
	}
	mean := meanLoad(loads, members)
	if mean <= 0 {
		return pairs
	}
	order := slices.Clone(members)
	sort.Slice(order, func(a, b int) bool {
		if loads[order[a]] != loads[order[b]] {
			return loads[order[a]] > loads[order[b]]
		}
		return order[a] < order[b]
	})
	threshold := mean * (1 + defaultTolerance)
	for _, i := range order {
		if loads[i] <= threshold {
			break // sorted: nobody further is overloaded
		}
		if paired[i] {
			continue // already receiving this round
		}
		idle := -1
		for _, j := range members {
			if j == i || comm[i][j] <= 0 || paired[j] || loads[j] >= mean {
				continue
			}
			if idle == -1 || loads[j] < loads[idle] {
				idle = j
			}
		}
		if idle == -1 {
			continue
		}
		pairs = append(pairs, platform.Pair{Busy: i, Idle: idle})
		paired[i], paired[idle] = true, true
	}
	return pairs
}
