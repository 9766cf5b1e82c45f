package balance

import (
	"sort"

	"ic2mpi/internal/platform"
)

// WorkStealing inverts the push heuristics: instead of overloaded
// processors choosing where to shed (the centralized heuristic and
// diffusion), underloaded processors pull work from their most-loaded
// communicating neighbor. The pull direction matters under fault
// injection: a processor that suddenly drains (its work migrated away, or
// its neighbors slowed down) initiates recovery itself instead of waiting
// for a neighbor to cross a push threshold. Plans are a pure function of
// the processor graph — deterministic with rank-order tie-breaks — so the
// kernel-equivalence and checkpoint-resume properties hold unchanged. A
// processor steals when its time is below mean*(1-defaultTolerance).
type WorkStealing struct{}

// Name implements platform.Balancer.
func (w *WorkStealing) Name() string { return "Work Stealing" }

// Plan implements platform.Balancer. Thieves are visited in increasing
// load order (ties broken by lower rank) so the emptiest processor gets
// first pick of victims; each steals from its most-loaded communicating
// neighbor whose time exceeds the mean. The paired set guarantees the
// structural rules of Table 1: a victim is never robbed twice and a thief
// never doubles as a victim.
func (w *WorkStealing) Plan(pg platform.ProcGraph) []platform.Pair {
	p := len(pg.Times)
	if p < 2 || len(pg.Comm) != p {
		return nil
	}
	order := ranks(p)
	mean := meanLoad(pg.Times, order)
	if mean <= 0 {
		return nil
	}
	sort.Slice(order, func(a, b int) bool {
		if pg.Times[order[a]] != pg.Times[order[b]] {
			return pg.Times[order[a]] < pg.Times[order[b]]
		}
		return order[a] < order[b]
	})
	threshold := mean * (1 - defaultTolerance)
	paired := make([]bool, p)
	var pairs []platform.Pair
	for _, i := range order {
		if pg.Times[i] >= threshold {
			break // sorted: nobody further is underloaded
		}
		if paired[i] {
			continue
		}
		// Most-loaded communicating neighbor above the mean, not already
		// part of a pair; ascending scan makes the lower rank win ties.
		victim := -1
		for j := 0; j < p; j++ {
			if j == i || pg.Comm[i][j] <= 0 || paired[j] || pg.Times[j] <= mean {
				continue
			}
			if victim == -1 || pg.Times[j] > pg.Times[victim] {
				victim = j
			}
		}
		if victim == -1 {
			continue
		}
		pairs = append(pairs, platform.Pair{Busy: victim, Idle: i})
		paired[victim], paired[i] = true, true
	}
	return pairs
}
