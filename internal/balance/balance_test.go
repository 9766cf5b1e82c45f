package balance

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"ic2mpi/internal/platform"
)

func fullComm(p int) [][]int {
	c := make([][]int, p)
	for i := range c {
		c[i] = make([]int, p)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1
			}
		}
	}
	return c
}

func TestPlanNoImbalance(t *testing.T) {
	b := &CentralizedHeuristic{}
	pg := platform.ProcGraph{Times: []float64{1, 1.1, 0.9, 1}, Comm: fullComm(4)}
	if pairs := b.Plan(pg); pairs != nil {
		t.Fatalf("balanced system produced pairs %v", pairs)
	}
}

func TestPlanDetectsBusyProcessor(t *testing.T) {
	b := &CentralizedHeuristic{StrictAllNeighbors: true}
	// Proc 0 does 2x the work of everyone; idle target is the least
	// loaded neighbor (proc 2 at 0.8).
	pg := platform.ProcGraph{Times: []float64{2, 1, 0.8, 1}, Comm: fullComm(4)}
	pairs := b.Plan(pg)
	if len(pairs) != 1 || pairs[0].Busy != 0 || pairs[0].Idle != 2 {
		t.Fatalf("pairs = %v, want [{0 2}]", pairs)
	}
}

// TestPlanRespectsThreshold pins the paper's 25% busy threshold.
func TestPlanRespectsThreshold(t *testing.T) {
	b := &CentralizedHeuristic{}
	pg := platform.ProcGraph{Times: []float64{1.2, 1, 1, 1}, Comm: fullComm(4)}
	if pairs := b.Plan(pg); pairs != nil {
		t.Fatalf("20%% overload with 25%% threshold produced %v", pairs)
	}
	pg = platform.ProcGraph{Times: []float64{1.3, 1, 1, 1}, Comm: fullComm(4)}
	if pairs := b.Plan(pg); len(pairs) != 1 {
		t.Fatalf("30%% overload with 25%% threshold produced %v", pairs)
	}
}

func TestPlanOnlyConsidersNeighbors(t *testing.T) {
	// Proc 0 only communicates with proc 1; proc 2 is idle but not a
	// neighbor of 0, so no plan may pair 0 with 2.
	comm := [][]int{
		{0, 5, 0},
		{5, 0, 5},
		{0, 5, 0},
	}
	pg := platform.ProcGraph{Times: []float64{2, 1, 0.1}, Comm: comm}
	// Strict: only proc 0 qualifies (proc 1 trails proc 0).
	strict := (&CentralizedHeuristic{StrictAllNeighbors: true}).Plan(pg)
	if len(strict) != 1 || strict[0] != (platform.Pair{Busy: 0, Idle: 1}) {
		t.Fatalf("strict pairs = %v, want [{0 1}]", strict)
	}
	// Relaxed: proc 1 is also busy (vs proc 2), which disqualifies it as
	// proc 0's idle target this round.
	relaxed := (&CentralizedHeuristic{}).Plan(pg)
	if len(relaxed) != 1 || relaxed[0] != (platform.Pair{Busy: 1, Idle: 2}) {
		t.Fatalf("relaxed pairs = %v, want [{1 2}]", relaxed)
	}
	for _, p := range append(strict, relaxed...) {
		if p.Busy == 0 && p.Idle == 2 {
			t.Fatalf("non-neighbors paired: %v", p)
		}
	}
}

func TestPlanBusyNeedsToExceedAllNeighborsWhenStrict(t *testing.T) {
	b := &CentralizedHeuristic{StrictAllNeighbors: true}
	// Proc 0 beats proc 1 by 100% but trails proc 2: not busy under the
	// strict (thesis C code) rule.
	pg := platform.ProcGraph{Times: []float64{2, 1, 2.5}, Comm: fullComm(3)}
	for _, p := range b.Plan(pg) {
		if p.Busy == 0 {
			t.Fatalf("proc 0 labeled busy despite a more loaded neighbor: %v", p)
		}
	}
}

func TestRelaxedRuleBreaksPlateaus(t *testing.T) {
	// Two equally overloaded processors adjacent to each other and to idle
	// ones: the strict rule deadlocks (each blocks the other), the relaxed
	// default migrates off both.
	pg := platform.ProcGraph{Times: []float64{5, 5, 1, 1}, Comm: fullComm(4)}
	strict := &CentralizedHeuristic{StrictAllNeighbors: true}
	if pairs := strict.Plan(pg); pairs != nil {
		t.Fatalf("strict rule produced %v on a plateau", pairs)
	}
	relaxed := &CentralizedHeuristic{}
	pairs := relaxed.Plan(pg)
	if len(pairs) != 2 {
		t.Fatalf("relaxed rule produced %v, want two pairs", pairs)
	}
	for _, p := range pairs {
		if p.Busy > 1 || p.Idle < 2 {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

func TestPlanMultiplePairs(t *testing.T) {
	b := &CentralizedHeuristic{}
	// Two separate busy islands: {0,1} and {2,3}.
	comm := [][]int{
		{0, 3, 0, 0},
		{3, 0, 0, 0},
		{0, 0, 0, 3},
		{0, 0, 3, 0},
	}
	pg := platform.ProcGraph{Times: []float64{2, 1, 3, 1}, Comm: comm}
	pairs := b.Plan(pg)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want two", pairs)
	}
}

func TestPlanZeroTimeNeighbor(t *testing.T) {
	b := &CentralizedHeuristic{}
	pg := platform.ProcGraph{Times: []float64{1, 0}, Comm: fullComm(2)}
	pairs := b.Plan(pg)
	if len(pairs) != 1 || pairs[0] != (platform.Pair{Busy: 0, Idle: 1}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestPlanDegenerateInputs(t *testing.T) {
	b := &CentralizedHeuristic{}
	if b.Plan(platform.ProcGraph{Times: []float64{1}, Comm: fullComm(1)}) != nil {
		t.Fatal("single proc produced a plan")
	}
	if b.Plan(platform.ProcGraph{}) != nil {
		t.Fatal("empty graph produced a plan")
	}
	if b.Plan(platform.ProcGraph{Times: []float64{1, 2}, Comm: fullComm(3)}) != nil {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestRelativeLoads(t *testing.T) {
	if got := RelativeLoad(2, 1); got != 100 {
		t.Fatalf("RelativeLoad(2, 1) = %v, want 100", got)
	}
	if got := RelativeLoad(1, 2); got != 0 {
		t.Fatalf("RelativeLoad(1, 2) = %v, want 0", got)
	}
	// A zero-time neighbor clamps to MaxRelativeLoad instead of +Inf: Inf
	// would make any JSON encoding of the value fail mid-run.
	if got := RelativeLoad(1, 0); got != MaxRelativeLoad {
		t.Fatalf("zero-time neighbor: rel = %v, want the MaxRelativeLoad clamp %v", got, MaxRelativeLoad)
	}
}

// TestRelativeLoadsAlwaysFinite is the seam audit for the ±Inf bugfix:
// whatever the two times (zeros, denormals, huge spreads), the relative
// load must survive a json.Marshal round trip — encoding/json rejects Inf
// and NaN, so finiteness here proves no relative load can sink a JSON
// encoder downstream (report, trace, docgen).
func TestRelativeLoadsAlwaysFinite(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%10) + 2
		times := make([]float64, p)
		x := uint64(seed)
		for i := range times {
			x = x*6364136223846793005 + 1442695040888963407
			switch x % 4 {
			case 0:
				times[i] = 0 // the divide-by-zero trigger
			case 1:
				times[i] = 5e-324 // smallest denormal: the worst-case ratio
			default:
				times[i] = float64(x%100000) / 10
			}
		}
		var rel []float64
		for _, ti := range times {
			for _, tj := range times {
				v := RelativeLoad(ti, tj)
				if math.IsInf(v, 0) || math.IsNaN(v) || v > MaxRelativeLoad {
					return false
				}
				rel = append(rel, v)
			}
		}
		_, err := json.Marshal(rel)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: plans are always structurally valid — distinct busy procs,
// busy never doubling as idle, all indices in range.
func TestQuickPlanStructurallyValid(t *testing.T) {
	b := &CentralizedHeuristic{}
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%12) + 2
		times := make([]float64, p)
		x := uint64(seed)
		for i := range times {
			x = x*6364136223846793005 + 1442695040888963407
			times[i] = float64(x%1000) / 100
		}
		pairs := b.Plan(platform.ProcGraph{Times: times, Comm: fullComm(p)})
		busy := map[int]bool{}
		for _, pr := range pairs {
			if pr.Busy < 0 || pr.Busy >= p || pr.Idle < 0 || pr.Idle >= p || pr.Busy == pr.Idle {
				return false
			}
			if busy[pr.Busy] {
				return false
			}
			busy[pr.Busy] = true
		}
		for _, pr := range pairs {
			if busy[pr.Idle] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
