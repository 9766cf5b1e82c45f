package balance

import (
	"math"

	"ic2mpi/internal/platform"
)

// busyThreshold is the minimum relative overload, in percent, for a
// processor to count as busy: the paper's "25% more work".
const busyThreshold = 25

// CentralizedHeuristic is the thesis' dynamic load balancer. The zero
// value uses the relaxed busy rule (see StrictAllNeighbors).
type CentralizedHeuristic struct {
	// StrictAllNeighbors selects the literal rule of the thesis' C code: a
	// processor is busy only when it exceeds EVERY communicating neighbor
	// by the threshold. Under this simulator's noise-free virtual clocks
	// that rule deadlocks on plateaus of equally-overloaded processors
	// (they block each other and nobody migrates), a tie the original
	// escaped only through real-hardware timing jitter. The default
	// (false) uses the relaxed rule — busy when exceeding the *least
	// loaded* communicating neighbor by the threshold — which preserves
	// the paper's behaviour ("dynamic load balancing is better, even for
	// finer grained grids") on deterministic clocks.
	StrictAllNeighbors bool
}

// Name implements platform.Balancer.
func (b *CentralizedHeuristic) Name() string { return "Centralized Heuristic" }

// Plan implements platform.Balancer. For every processor i that is
// connected to at least one other processor and whose computation time
// exceeds every connected neighbor's by busyThreshold, it emits the pair
// (i, argmin-time neighbor). Pairs are sanitized so no processor is busy
// twice and no busy processor doubles as another pair's idle target, the
// structural rules of Table 1.
func (b *CentralizedHeuristic) Plan(pg platform.ProcGraph) []platform.Pair {
	p := len(pg.Times)
	if p < 2 || len(pg.Comm) != p {
		return nil
	}
	var pairs []platform.Pair
	busy := make([]bool, p)
next:
	for i := 0; i < p; i++ {
		idle, idleTime := -1, math.Inf(1)
		for j := 0; j < p; j++ {
			if i == j || pg.Comm[i][j] <= 0 {
				continue
			}
			if b.StrictAllNeighbors && RelativeLoad(pg.Times[i], pg.Times[j]) < busyThreshold {
				continue next
			}
			if pg.Times[j] < idleTime {
				idle, idleTime = j, pg.Times[j]
			}
		}
		if idle == -1 {
			continue // no communicating neighbor
		}
		// Relaxed rule: overload measured against the least loaded
		// communicating neighbor.
		if !b.StrictAllNeighbors && RelativeLoad(pg.Times[i], pg.Times[idle]) < busyThreshold {
			continue
		}
		pairs = append(pairs, platform.Pair{Busy: i, Idle: idle})
		busy[i] = true
	}
	// A busy processor can never be another pair's idle side. Under the
	// strict rule its time exceeds all its neighbors', so it cannot be the
	// minimum-time neighbor of a busy neighbor; under the relaxed rule it
	// can, and that pair is dropped.
	out := pairs[:0]
	for _, pr := range pairs {
		if !busy[pr.Idle] {
			out = append(out, pr)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// MaxRelativeLoad caps RelativeLoad (in percent). A zero-time neighbor of
// a loaded processor used to produce +Inf — the C original's
// divide-by-zero — which `encoding/json` refuses to encode, so any report
// or trace that serialized the value would fail mid-run. The cap keeps the
// "arbitrarily large imbalance" semantics (it exceeds every sane
// threshold) while guaranteeing the value stays finite end to end.
const MaxRelativeLoad = 1e9

// RelativeLoad is one entry of the thesis' relative_proc_load matrix in
// percent, for a processor of time ti against a communicating neighbor of
// time tj: (ti - tj) / tj * 100 when ti > tj, else 0, clamped to
// MaxRelativeLoad so the result is always finite (a zero-time neighbor of
// a loaded processor hits the clamp). The matrix itself is never built:
// the heuristic reads the entries of communicating pairs only.
func RelativeLoad(ti, tj float64) float64 {
	if ti <= tj {
		return 0
	}
	if tj <= 0 {
		return MaxRelativeLoad
	}
	r := (ti - tj) / tj * 100
	if r > MaxRelativeLoad {
		r = MaxRelativeLoad
	}
	return r
}

// defaultTolerance is the relative distance from the mean load at which
// the mean-based balancers (all but the centralized heuristic) act.
const defaultTolerance = 0.10

// meanLoad is the mean of loads over members, summed in members' order:
// ascending everywhere, and the float sum's order is part of every plan.
func meanLoad(loads []float64, members []int) float64 {
	sum := 0.0
	for _, r := range members {
		sum += loads[r]
	}
	return sum / float64(len(members))
}

// ranks returns the ascending list of all p processors.
func ranks(p int) []int {
	all := make([]int, p)
	for r := range all {
		all[r] = r
	}
	return all
}
