package netmodel

import (
	"strings"
	"testing"

	"ic2mpi/internal/topology"
)

func TestOrigin2000Shape(t *testing.T) {
	m := Origin2000()
	if m.Latency <= 0 || m.ByteTime <= 0 || m.SendOverhead <= 0 || m.RecvOverhead <= 0 {
		t.Fatalf("Origin2000 has non-positive parameters: %+v", m)
	}
	// Latency must dominate the per-byte cost for small messages — the
	// fine-grain scaling plateau depends on it.
	if m.Latency < 100*m.ByteTime {
		t.Fatalf("latency %v suspiciously small vs byte time %v", m.Latency, m.ByteTime)
	}
}

func TestLogGPValidate(t *testing.T) {
	if err := Origin2000().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (LogGP{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (LogGP{ByteTime: -1}).Validate(); err == nil {
		t.Fatal("negative ByteTime accepted")
	}
}

func TestUniformArrivalTime(t *testing.T) {
	u := NewUniform(LogGP{Latency: 1e-3, ByteTime: 1e-6})
	got := u.ArrivalTime(0, 1, 1.0, 1000)
	want := 1.0 + 1e-3 + 1e-3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("ArrivalTime = %v, want %v", got, want)
	}
	// The flat model ignores the endpoints entirely.
	if u.ArrivalTime(3, 7, 1.0, 1000) != got {
		t.Fatal("uniform arrival depends on endpoints")
	}
	if u.Speed(5) != 1 {
		t.Fatal("uniform machine not homogeneous")
	}
}

// TestUniformMatchesUnitTopology pins the float-association contract: the
// flat model and a fully connected unit-cost topology are the same
// machine, bit for bit.
func TestUniformMatchesUnitTopology(t *testing.T) {
	base := Origin2000()
	u := NewUniform(base)
	net, err := topology.Uniform(8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(net, base)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			for _, n := range []int{0, 1, 1000, 1 << 20} {
				a, b := u.ArrivalTime(src, dst, 0.5, n), topo.ArrivalTime(src, dst, 0.5, n)
				if a != b {
					t.Fatalf("(%d,%d,%d): uniform %v != unit topology %v", src, dst, n, a, b)
				}
			}
		}
	}
}

// TestHopMonotonicity is the invariant every shipped model must satisfy:
// for a fixed payload and send time, more hops never yield an earlier
// arrival. Verified pairwise against the underlying link costs for every
// named machine at several sizes.
func TestHopMonotonicity(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{2, 5, 8, 16} {
			m, err := New(name, procs)
			if err != nil {
				t.Fatalf("New(%q, %d): %v", name, procs, err)
			}
			type pair struct {
				hops    float64
				arrival float64
			}
			var pairs []pair
			for src := 0; src < procs; src++ {
				for dst := 0; dst < procs; dst++ {
					if src == dst {
						continue
					}
					hops := 1.0
					if topo, ok := m.(Topology); ok {
						hops = topo.Net.Cost(src, dst)
					}
					pairs = append(pairs, pair{hops, m.ArrivalTime(src, dst, 0, 4096)})
				}
			}
			for _, a := range pairs {
				for _, b := range pairs {
					if a.hops >= b.hops && a.arrival < b.arrival {
						t.Fatalf("%s/%d procs: %v hops arrives at %v, earlier than %v hops at %v",
							name, procs, a.hops, a.arrival, b.hops, b.arrival)
					}
				}
			}
		}
	}
}

// unitLatency prices build(procs) at one second per hop and nothing else,
// so an arrival time reads as the link cost.
func unitLatency(t *testing.T, build func(procs int) (*topology.Network, error), procs int) Topology {
	t.Helper()
	net, err := build(procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTopology(net, LogGP{Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHypercubeDistances(t *testing.T) {
	m := unitLatency(t, topology.Hypercube, 8)
	// 0 -> 7 flips three bits; 0 -> 4 flips one.
	if got := m.ArrivalTime(0, 7, 0, 0); got != 3 {
		t.Fatalf("0->7 arrival %v, want 3", got)
	}
	if got := m.ArrivalTime(0, 4, 0, 0); got != 1 {
		t.Fatalf("0->4 arrival %v, want 1", got)
	}
}

func TestMesh2DDistances(t *testing.T) {
	// 16 processors arrange as a 4x4 mesh; 0 sits at (0,0), 15 at (3,3).
	m := unitLatency(t, topology.Mesh2D, 16)
	if got := m.ArrivalTime(0, 15, 0, 0); got != 6 {
		t.Fatalf("corner-to-corner arrival %v, want 6", got)
	}
	if got := m.ArrivalTime(0, 1, 0, 0); got != 1 {
		t.Fatalf("adjacent arrival %v, want 1", got)
	}
}

func TestFatTreeDistances(t *testing.T) {
	// Arity 4: ranks 0-3 share a leaf switch (1 hop); any two distinct
	// leaves among 16 procs meet one level up (3 hops); with 64 procs,
	// ranks 0 and 63 meet two levels up (5 hops).
	m := unitLatency(t, func(procs int) (*topology.Network, error) { return topology.FatTree(procs, 4) }, 64)
	cases := []struct {
		src, dst int
		want     float64
	}{{0, 1, 1}, {0, 3, 1}, {0, 4, 3}, {0, 15, 3}, {0, 63, 5}, {4, 7, 1}}
	for _, c := range cases {
		if got := m.ArrivalTime(c.src, c.dst, 0, 0); got != c.want {
			t.Fatalf("%d->%d arrival %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestHeterogeneousGridModel(t *testing.T) {
	m := unitLatency(t, func(procs int) (*topology.Network, error) { return topology.HeterogeneousGrid(procs, 2, 10) }, 4)
	if m.Speed(0) != 1 || m.Speed(3) != 2 {
		t.Fatalf("speeds %v/%v, want 1/2", m.Speed(0), m.Speed(3))
	}
	if got := m.ArrivalTime(0, 1, 0, 0); got != 1 {
		t.Fatalf("intra-cluster arrival %v, want 1", got)
	}
	if got := m.ArrivalTime(0, 2, 0, 0); got != 10 {
		t.Fatalf("inter-cluster arrival %v, want 10", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name, 8)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m.String() != name {
			t.Errorf("New(%q).String() = %q", name, m.String())
		}
		if err := m.Validate(8); err != nil {
			t.Errorf("New(%q).Validate(8): %v", name, err)
		}
		for r := 0; r < 8; r++ {
			if m.SendOverhead(r) < 0 || m.RecvOverhead(r) < 0 || m.Speed(r) <= 0 {
				t.Errorf("%s rank %d: bad overheads/speed", name, r)
			}
		}
	}
	if _, err := New("", 4); err != nil {
		t.Errorf("empty name should resolve to uniform: %v", err)
	}
	if _, err := New("crayola", 4); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown name accepted: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	m, err := New(NameHypercube, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(8); err == nil {
		t.Fatal("4-processor machine accepted 8 ranks")
	}
	if err := (Topology{}).Validate(1); err == nil {
		t.Fatal("topology without network accepted")
	}
	if err := NewUniform(LogGP{Latency: -1}).Validate(1); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// TestArrivalTimeNoAllocs pins the hot-path contract behind bench/'s
// netmodel.arrival_ns and platform.ns_per_msg.dense rows: pricing a
// message is pure arithmetic on every model, so the interface call the
// runtime makes per delivery can never allocate.
func TestArrivalTimeNoAllocs(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			m.ArrivalTime(3, 5, 1.0, 4096)
		}); n != 0 {
			t.Errorf("%s: ArrivalTime allocates %v per call", name, n)
		}
	}
}

// Benchmarks for the per-message pricing call — the interface the mpi
// runtime invokes on every delivery. bench/'s netmodel.arrival_ns row is
// the recorded form; platform.ns_per_msg.dense is the end-to-end effect.

func benchArrival(b *testing.B, m Model) {
	b.Helper()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink = m.ArrivalTime(i&7, (i>>3)&7, sink, 64)
	}
	_ = sink
}

func BenchmarkArrivalTimeUniform(b *testing.B) { benchArrival(b, NewUniform(Origin2000())) }

func BenchmarkArrivalTimeHypercube(b *testing.B) {
	m, err := New(NameHypercube, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchArrival(b, m)
}

func BenchmarkArrivalTimeFatTree(b *testing.B) {
	m, err := New(NameFatTree, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchArrival(b, m)
}
