package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ic2mpi/internal/scenario"
)

// benchSweeps are the -sweep strings the repository benchmark drives
// (bench/inputs.go: sweepSet, then daemonJobs J1-J5; bench is a main
// package, so they are copied), each with the SHA-256 of
// fmt.Sprintf("%+v", Cells()) recorded at the parent of the axis table.
var benchSweeps = []struct{ spec, cells string }{
	{"procs=1,2,4,8,16;partitioner=metis;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "29ef8834f9a1a2cefb42e87bf78f480d2b5c2c224e03bc33c4d8a3096240293e"},
	{"procs=1,2,4,16;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "a28d01ba78aca82043f4c3b1d1bd99c8022cb7f225e95c170a154c2b1fb45cec"},
	{"procs=1,2,4,8;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "1781dcb2ae96c26918bb8ce0b5b896dab54ce65080035f1bb0f598960ddaa1a5"},
	{"procs=2,4,8,16;balancer=none,centralized,diffusion,worksteal,hierarchical,predictive;network=hypercube,fattree", "e9ad6315c503ada217016cfc13809c9e6a8049e5245759977c2bc71f10d93587"},
	{"procs=1,2,4,8,16;exchange=basic,overlap;perturb=none,brownout,chaos@7", "f9aaf0af39350003553628cc7f5927804b36973dde3f697c9b9f36220f77c692"},
	{"procs=1,2,4,8,16;partitioner=metis,rcb,rowband", "41ff9e460eb0954b040b7adc690937c296d778edefb29654c303d880c39ecf58"},
	{"procs=1,2,4,8,16;network=uniform,hypercube,hetgrid", "493223cf1b7d63be2df4cb28fe1fcdf3b11254c3a1757c0cd4ebd4da53e633bf"},
	{"procs=4,8,16;partitioner=metis,rectband,bf", "6643ec60583ed29feca7d9084e7aaf187995d3868c4920a4d595064f8247711e"},
	{"procs=2,4,8", "0061cdebb944f83eb13188c97fd762f8fd15387cfe1daece51106e7d24d68a75"},
	{"procs=1,2,4,8;iters=10", "b79f478e0424911f064de003416a278ab1cdb95ae0b9d788a7706c7b17b61de8"},
	{"procs=1,2,4,16;partitioner=metis,pagrid", "1851836aaebb169163495c286caed285ff894c7e62c3631dfb6db5a2127a3223"},
	{"procs=4,8;balancer=none,diffusion,centralized", "9a6bae9cd7585dcd48a96828c7b688694b0b5ddc9d60ffe23416722703ec49b4"},
	{"procs=8;network=hypercube,mesh2d,fattree", "cee5140c9d5650230f2ba05674d870104796377a3ec0aae2bc3539cd70276945"},
	{"procs=8;iters=20", "a3dc39afcc3dbe0cfacb3e88f2be78bf4d0e9fc73f9abe735974aa98aa8d1cc3"},
}

// TestCellsOrderPinned pins the cell enumeration — values and order, hence
// the speedup groups, shard bounds and cache keys derived from it — to
// digests recorded before the enumeration became a loop over the axis
// table.
func TestCellsOrderPinned(t *testing.T) {
	digest := func(ax Axes) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", ax.Cells()))))
	}
	if got, want := digest(Axes{}), "ac2f4b4a1f830cf6fa8200f57d41b1ef17b8f87906148ccb1802d6413fc19cd5"; got != want {
		t.Errorf("Axes{}: cells digest %s, want %s", got, want)
	}
	all, err := ParseAxes("iters=3,5;partitioner=metis,rcb;exchange=basic,overlap;buffers=pooled,unpooled;" +
		"balancer=none,diffusion;network=uniform,mesh2d;perturb=none,ramp;kernel=goroutine,event;procs=2,4")
	if err != nil {
		t.Fatal(err)
	}
	if n := all.Size(); n != 512 {
		t.Fatalf("two values on nine axes: Size() = %d, want 512", n)
	}
	if got, want := digest(all), "480198b6d9b45e9abd105a52241e61baf6ad2cbd0f88bfd9ff35e277d9867a62"; got != want {
		t.Errorf("nine two-valued axes: cells digest %s, want %s", got, want)
	}
	for _, s := range benchSweeps {
		ax, err := ParseAxes(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(ax); got != s.cells {
			t.Errorf("%q: cells digest %s, want %s", s.spec, got, s.cells)
		}
	}
}

// TestSizeSaturates pins Size against the true product: exact while an int
// can hold it, math.MaxInt once it cannot — never a wrapped value that a
// cap on the cell count would read as small (65536 values on four axes
// multiply to 2^64, which wraps to 0).
func TestSizeSaturates(t *testing.T) {
	ints := func(n int) []int { return make([]int, n) }
	strs := func(n int) []string { return make([]string, n) }
	for _, tc := range []struct {
		name string
		ax   Axes
		want int
	}{
		{"one cell", Axes{Procs: ints(1)}, 1},
		{"2^48", Axes{Procs: ints(1 << 16), Iterations: ints(1 << 16), Partitioners: strs(1 << 16)}, 1 << 48},
		{"2^62", Axes{Procs: ints(1 << 16), Iterations: ints(1 << 16), Partitioners: strs(1 << 16), Balancers: strs(1 << 14)}, 1 << 62},
		{"2^63 wraps negative", Axes{Procs: ints(1 << 16), Iterations: ints(1 << 16), Partitioners: strs(1 << 16), Balancers: strs(1 << 15)}, math.MaxInt},
		{"2^64 wraps to zero", Axes{Procs: ints(1 << 16), Iterations: ints(1 << 16), Partitioners: strs(1 << 16), Balancers: strs(1 << 16)}, math.MaxInt},
		{"2^80 wraps to zero twice", Axes{Procs: ints(1 << 16), Iterations: ints(1 << 16), Partitioners: strs(1 << 16), Balancers: strs(1 << 16), Networks: strs(1 << 16)}, math.MaxInt},
	} {
		if got := tc.ax.Size(); got != tc.want {
			t.Errorf("%s: Size() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAxisTableContract states once what a row of the axes table promises,
// for every row and every accepted key (aliases included): two values
// given under the key reach — through Cells and through Single — the one
// scenario.Params field whose JSON name is a key of that axis and no other
// field; no two axes share a field; and an axis takes its values once.
func TestAxisTableContract(t *testing.T) {
	if n := (Axes{}).Normalized().Size(); n != len(Procs) {
		t.Errorf("Axes{}.Normalized().Size() = %d, want len(Procs) = %d", n, len(Procs))
	}
	pt := reflect.TypeOf(scenario.Params{})
	procs, _ := pt.FieldByName("Procs")
	owner := make(map[int]string) // Params field index → the axis that writes it
	for i, name := range AxisNames() {
		a := &axes[i]
		own := -1
		for f := 0; f < pt.NumField(); f++ {
			if slices.Contains(a.keys, pt.Field(f).Tag.Get("json")) {
				own = f
			}
		}
		if own < 0 {
			t.Fatalf("axis %s: no scenario.Params field has a JSON name among %v", name, a.keys)
		}
		if prev, dup := owner[own]; dup {
			t.Fatalf("axes %s and %s both write Params.%s", prev, name, pt.Field(own).Name)
		}
		owner[own] = name
		// onlyOwn reports every field of p other than the axis's own (and
		// Procs, which every cell carries) that is set, and returns the own
		// field's value.
		onlyOwn := func(key string, p scenario.Params) string {
			v := reflect.ValueOf(p)
			for f := 0; f < v.NumField(); f++ {
				if f != own && f != procs.Index[0] && !v.Field(f).IsZero() {
					t.Errorf("key %q reached Params.%s", key, pt.Field(f).Name)
				}
			}
			return fmt.Sprint(v.Field(own).Interface())
		}
		for _, key := range a.keys {
			var ax Axes
			if err := ax.Set(key, "2,3"); err != nil {
				t.Fatalf("Set(%q): %v", key, err)
			}
			if ax.Empty() {
				t.Errorf("Empty() after Set(%q)", key)
			}
			if err := ax.Set(name, "5"); err == nil || !strings.Contains(err.Error(), "set twice") {
				t.Errorf("Set(%q) then Set(%q): got %v, want a set-twice error", key, name, err)
			}
			if _, err := ax.Single(); err == nil {
				t.Errorf("Single() accepted two values under %q", key)
			}
			cells := ax.Cells()
			if len(cells) != ax.Size() {
				t.Errorf("key %q: %d cells, Size() = %d", key, len(cells), ax.Size())
			}
			count := make(map[string]int)
			for _, c := range cells {
				count[onlyOwn(key, c)]++
			}
			if count["2"] != len(cells)/2 || count["3"] != len(cells)/2 {
				t.Errorf("key %q: Params.%s takes values %v over %d cells, want 2 and 3 half each", key, pt.Field(own).Name, count, len(cells))
			}

			var one Axes
			if err := one.Set(key, "3"); err != nil {
				t.Fatal(err)
			}
			p, err := one.Single()
			if err != nil {
				t.Fatalf("Single() after Set(%q, 3): %v", key, err)
			}
			if own != procs.Index[0] && p.Procs != 0 {
				t.Errorf("key %q: Single() set Procs = %d", key, p.Procs)
			}
			if got := onlyOwn(key, p); got != "3" {
				t.Errorf("key %q: Single() put %q in Params.%s, want 3", key, got, pt.Field(own).Name)
			}
		}
	}
}

var enumerated []scenario.Params

// BenchmarkParseAndEnumerate measures what a cached daemon job still pays
// in this package — ParseAxes, Size and Cells — over the benchmark's J1-J4
// sweep strings.
func BenchmarkParseAndEnumerate(b *testing.B) {
	jobs := benchSweeps[9:13]
	b.ReportAllocs()
	for b.Loop() {
		for _, job := range jobs {
			ax, err := ParseAxes(job.spec)
			if err != nil {
				b.Fatal(err)
			}
			if ax.Size() < 1 {
				b.Fatal("empty sweep")
			}
			enumerated = ax.Cells()
		}
	}
}
