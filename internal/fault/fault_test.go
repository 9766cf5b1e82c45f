package fault

import (
	"testing"

	"ic2mpi/internal/netmodel"
)

func wrap(t *testing.T, spec string, procs, iters int) *Model {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatalf("Parse(%q) returned no schedule", spec)
	}
	base, err := netmodel.New(netmodel.NameHypercube, procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Wrap(base, s, procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseSpecs(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		s, err := Parse(spec)
		if err != nil || s != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", spec, s, err)
		}
	}
	for _, spec := range []string{"brownout", "links", "ramp", "chaos", "brownout@7", "chaos@-3", " brownout@2 "} {
		s, err := Parse(spec)
		if err != nil || s == nil {
			t.Errorf("Parse(%q) = %v, %v; want schedule", spec, s, err)
		}
	}
	if s, _ := Parse("brownout@7"); s.Seed != 7 {
		t.Errorf("brownout@7 seed = %d, want 7", s.Seed)
	}
	if s, _ := Parse("brownout"); s.Seed != 1 {
		t.Errorf("brownout default seed = %d, want 1", s.Seed)
	}
	for _, spec := range []string{"earthquake", "brownout@", "brownout@x", "none@2", "@3"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestWrapValidation(t *testing.T) {
	base := netmodel.NewUniform(netmodel.Origin2000())
	s, _ := Parse("brownout")
	if _, err := Wrap(nil, s, 4, 10); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Wrap(base, nil, 4, 10); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := Wrap(base, s, 0, 10); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := Wrap(base, s, 4, 0); err == nil {
		t.Error("iters=0 accepted")
	}
	for _, bad := range []*Schedule{
		{Brownout: &Brownout{Factor: 0}},
		{Brownout: &Brownout{Factor: 2, Prob: 1.5}},
		{Links: &LinkFault{Prob: 0.5, Factor: -1}},
		{Links: &LinkFault{Prob: -0.1, Factor: 2}},
		{Ramp: &Ramp{Max: -1}},
	} {
		if _, err := Wrap(base, bad, 4, 10); err == nil {
			t.Errorf("invalid schedule %+v accepted", bad)
		}
	}
	m, err := Wrap(base, s, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(4); err != nil {
		t.Errorf("Validate(4): %v", err)
	}
	if err := m.Validate(8); err == nil {
		t.Error("Validate(8) on a 4-proc wrapper accepted")
	}
}

// TestEpochZeroIsUnperturbed pins the initialization contract: at epoch
// 0 every *At method equals the base model's static answer, and the
// epoch-less Model methods do too.
func TestEpochZeroIsUnperturbed(t *testing.T) {
	for _, spec := range []string{"brownout", "links", "ramp", "chaos"} {
		m := wrap(t, spec, 8, 12)
		base := m.base
		for rank := 0; rank < 8; rank++ {
			if got, want := m.SpeedAt(0, rank), base.Speed(rank); got != want {
				t.Errorf("%s: SpeedAt(0, %d) = %g, want %g", spec, rank, got, want)
			}
			if got, want := m.SendOverheadAt(0, rank), base.SendOverhead(rank); got != want {
				t.Errorf("%s: SendOverheadAt(0, %d) = %g, want %g", spec, rank, got, want)
			}
			if got, want := m.Speed(rank), base.Speed(rank); got != want {
				t.Errorf("%s: Speed(%d) = %g, want %g", spec, rank, got, want)
			}
		}
		if got, want := m.ArrivalTimeAt(0, 0, 3, 1.5, 64), base.ArrivalTime(0, 3, 1.5, 64); got != want {
			t.Errorf("%s: ArrivalTimeAt(0,...) = %g, want %g", spec, got, want)
		}
	}
}

// TestBrownoutWindow pins the canonical mid-run brownout: exactly one
// processor slows down by Factor, exactly during the middle third of the
// run, and a run too short for a middle third still browns out one
// iteration.
func TestBrownoutWindow(t *testing.T) {
	const procs, iters = 8, 30
	m := wrap(t, "brownout", procs, iters)
	if m.from != iters/3+1 || m.until != 2*iters/3+1 {
		t.Fatalf("window [%d, %d), want [%d, %d)", m.from, m.until, iters/3+1, 2*iters/3+1)
	}
	if m.brownRank < 0 || m.brownRank >= procs {
		t.Fatalf("browned-out rank %d outside [0, %d)", m.brownRank, procs)
	}
	if tiny := wrap(t, "brownout", 4, 1); tiny.until <= tiny.from {
		t.Errorf("iters=1 window [%d, %d) is empty", tiny.from, tiny.until)
	}
	factor := m.sched.Brownout.Factor
	for epoch := 0; epoch <= iters; epoch++ {
		for rank := 0; rank < procs; rank++ {
			want := 1.0
			if rank == m.brownRank && epoch >= m.from && epoch < m.until {
				want = factor
			}
			if got := m.SpeedAt(epoch, rank); got != want {
				t.Fatalf("SpeedAt(%d, %d) = %g, want %g", epoch, rank, got, want)
			}
		}
	}
}

// TestDeterminism pins the purity contract: the same (seed, epoch,
// rank/link) always answers identically, distinct seeds answer
// differently somewhere, and repeated wraps of the same schedule are
// interchangeable.
func TestDeterminism(t *testing.T) {
	for _, spec := range []string{"brownout", "links", "ramp", "chaos", "chaos@9"} {
		a := wrap(t, spec, 8, 20)
		b := wrap(t, spec, 8, 20)
		for epoch := 0; epoch <= 20; epoch++ {
			for rank := 0; rank < 8; rank++ {
				if a.SpeedAt(epoch, rank) != b.SpeedAt(epoch, rank) {
					t.Fatalf("%s: SpeedAt(%d, %d) differs across wraps", spec, epoch, rank)
				}
				if a.RecvOverheadAt(epoch, rank) != b.RecvOverheadAt(epoch, rank) {
					t.Fatalf("%s: RecvOverheadAt(%d, %d) differs across wraps", spec, epoch, rank)
				}
			}
			for src := 0; src < 8; src++ {
				for dst := 0; dst < 8; dst++ {
					if a.ArrivalTimeAt(epoch, src, dst, 0.25, 128) != b.ArrivalTimeAt(epoch, src, dst, 0.25, 128) {
						t.Fatalf("%s: ArrivalTimeAt(%d, %d->%d) differs across wraps", spec, epoch, src, dst)
					}
				}
			}
		}
	}
	// Different seeds must actually change the schedule somewhere.
	a, b := wrap(t, "chaos@1", 8, 20), wrap(t, "chaos@2", 8, 20)
	same := true
	for epoch := 1; epoch <= 20 && same; epoch++ {
		for rank := 0; rank < 8; rank++ {
			if a.SpeedAt(epoch, rank) != b.SpeedAt(epoch, rank) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("chaos@1 and chaos@2 produced identical speed schedules")
	}
}

// TestLinkFaultSymmetry pins that link degradation treats (src, dst) as
// an unordered pair, and that degraded arrivals are never earlier than
// the base model's.
func TestLinkFaultSymmetry(t *testing.T) {
	m := wrap(t, "links", 8, 24)
	base := m.base
	degraded := 0
	for epoch := 1; epoch <= 24; epoch++ {
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				fwd := m.ArrivalTimeAt(epoch, src, dst, 0, 256)
				rev := m.ArrivalTimeAt(epoch, dst, src, 0, 256)
				if fwd != rev {
					t.Fatalf("epoch %d link %d<->%d asymmetric: %g vs %g", epoch, src, dst, fwd, rev)
				}
				if want := base.ArrivalTime(src, dst, 0, 256); fwd < want {
					t.Fatalf("epoch %d %d->%d arrival %g earlier than base %g", epoch, src, dst, fwd, want)
				} else if fwd > want {
					degraded++
				}
			}
		}
	}
	if degraded == 0 {
		t.Error("links schedule degraded nothing over 24 epochs")
	}
}

// TestRampMonotone pins the background ramp: per-rank factors never
// decrease with the epoch and stay within [1, 1+Max].
func TestRampMonotone(t *testing.T) {
	m := wrap(t, "ramp", 8, 40)
	max := m.sched.Ramp.Max
	varied := false
	for rank := 0; rank < 8; rank++ {
		prev := 1.0
		for epoch := 1; epoch <= 40; epoch++ {
			f := m.SpeedAt(epoch, rank)
			if f < prev {
				t.Fatalf("rank %d ramp decreased at epoch %d: %g -> %g", rank, epoch, prev, f)
			}
			if f < 1 || f > 1+max {
				t.Fatalf("rank %d epoch %d factor %g outside [1, %g]", rank, epoch, f, 1+max)
			}
			prev = f
		}
		if prev != 1 {
			varied = true
		}
	}
	if !varied {
		t.Error("ramp left every rank at factor 1")
	}
}

// TestArrivalTimeAtNoAllocs pins the hot-path contract: pricing a
// message on a perturbed machine allocates nothing.
func TestArrivalTimeAtNoAllocs(t *testing.T) {
	m := wrap(t, "chaos", 8, 20)
	allocs := testing.AllocsPerRun(200, func() {
		for epoch := 1; epoch <= 20; epoch++ {
			m.ArrivalTimeAt(epoch, 1, 6, 0.5, 512)
			m.SpeedAt(epoch, 3)
			m.SendOverheadAt(epoch, 2)
		}
	})
	if allocs != 0 {
		t.Errorf("perturbed pricing allocates %.1f per run, want 0", allocs)
	}
}

// TestStringNamesSpec pins the report name: schedule spec over base.
func TestStringNamesSpec(t *testing.T) {
	m := wrap(t, "brownout@7", 4, 10)
	if got := m.String(); got != "brownout@7(hypercube)" {
		t.Errorf("String() = %q", got)
	}
}
