package balance

import (
	"math"
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
// kernel-equivalence and checkpoint-resume properties hold unchanged.
type WorkStealing struct {
	// Tolerance is the relative underload versus the mean that makes a
	// processor steal (a thief's time must be below mean*(1-Tolerance));
	// 0.10 for the zero value. An explicitly negative, >= 1, or
	// non-finite tolerance is a configuration error (see Validate).
	Tolerance float64
}

// Name implements platform.Balancer.
func (w *WorkStealing) Name() string { return "Work Stealing" }

// Validate implements platform.ValidatingBalancer.
func (w *WorkStealing) Validate() error {
	if w.Tolerance < 0 || w.Tolerance >= 1 || math.IsNaN(w.Tolerance) {
		return invalid("work-stealing tolerance", "in (0,1)", w.Tolerance)
	}
	return nil
}

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
	threshold := mean * (1 - orDefault(w.Tolerance, defaultTolerance))
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
