package balance

import (
	"testing"
	"testing/quick"

	"ic2mpi/internal/platform"
)

func TestDiffusionBalancedSystemNoPairs(t *testing.T) {
	d := &Diffusion{}
	pg := platform.ProcGraph{Times: []float64{1, 1.05, 0.95, 1}, Comm: fullComm(4)}
	if pairs := d.Plan(pg); pairs != nil {
		t.Fatalf("balanced system planned %v", pairs)
	}
}

func TestDiffusionShedsFromOverloaded(t *testing.T) {
	d := &Diffusion{}
	pg := platform.ProcGraph{Times: []float64{4, 1, 1, 1}, Comm: fullComm(4)}
	pairs := d.Plan(pg)
	if len(pairs) != 1 || pairs[0].Busy != 0 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Idle == 0 {
		t.Fatalf("self pair %v", pairs)
	}
}

func TestDiffusionPairsDistinctTargets(t *testing.T) {
	// Two overloaded processors must pick different idle targets within a
	// round.
	d := &Diffusion{}
	pg := platform.ProcGraph{Times: []float64{4, 4, 0.2, 0.2}, Comm: fullComm(4)}
	pairs := d.Plan(pg)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Idle == pairs[1].Idle {
		t.Fatalf("shared idle target: %v", pairs)
	}
}

func TestDiffusionRespectsCommEdges(t *testing.T) {
	d := &Diffusion{}
	comm := [][]int{
		{0, 1, 0},
		{1, 0, 1},
		{0, 1, 0},
	}
	// Proc 0 overloaded but its only neighbor (1) is above the mean; no
	// legal target.
	pg := platform.ProcGraph{Times: []float64{4, 3, 0.1}, Comm: comm}
	for _, p := range d.Plan(pg) {
		if p.Busy == 0 && p.Idle == 2 {
			t.Fatalf("paired non-neighbors: %v", p)
		}
	}
}

func TestDiffusionDegenerate(t *testing.T) {
	d := &Diffusion{}
	if d.Plan(platform.ProcGraph{Times: []float64{1}, Comm: fullComm(1)}) != nil {
		t.Fatal("single proc planned")
	}
	if d.Plan(platform.ProcGraph{Times: []float64{0, 0}, Comm: fullComm(2)}) != nil {
		t.Fatal("zero-load system planned")
	}
	if d.Plan(platform.ProcGraph{Times: []float64{1, 2}, Comm: fullComm(3)}) != nil {
		t.Fatal("mismatched matrix accepted")
	}
}

// Property: diffusion plans are structurally legal (Table 1 rules) for
// arbitrary load vectors.
func TestQuickDiffusionPlansLegal(t *testing.T) {
	d := &Diffusion{}
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%12) + 2
		times := make([]float64, p)
		x := uint64(seed)
		for i := range times {
			x = x*6364136223846793005 + 1442695040888963407
			times[i] = float64(x%1000) / 50
		}
		pairs := d.Plan(platform.ProcGraph{Times: times, Comm: fullComm(p)})
		busy := map[int]bool{}
		idle := map[int]bool{}
		for _, pr := range pairs {
			if pr.Busy < 0 || pr.Busy >= p || pr.Idle < 0 || pr.Idle >= p || pr.Busy == pr.Idle {
				return false
			}
			if busy[pr.Busy] || idle[pr.Idle] {
				return false
			}
			busy[pr.Busy] = true
			idle[pr.Idle] = true
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
