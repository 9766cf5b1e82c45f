package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ic2mpi/internal/mpi"
	"ic2mpi/internal/scenario"
)

// benchSweeps are the -sweep strings the repository benchmark drives
// (bench/inputs.go: sweepSet, then daemonJobs J1-J5; bench is a main
// package, so they are copied), each with the SHA-256 of
// renderCells(Cells()).
var benchSweeps = []struct{ spec, rendered string }{
	{"procs=1,2,4,8,16;partitioner=metis;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "c0244314b36b9c63a47805544ed6d764473195010e1aa521ff17bc289e5e55cd"},
	{"procs=1,2,4,16;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "b4abf37cbdec6633a872ea1826e3b2ce66c1ff0265e66f0ebdc27e899c61bc18"},
	{"procs=1,2,4,8;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree", "4e48675bb596973d0b73de97d1395a8e1d7f597cfd683a6c93012ed4adb31a22"},
	{"procs=2,4,8,16;balancer=none,centralized,diffusion,worksteal,hierarchical,predictive;network=hypercube,fattree", "bfff0554cc276be7e9e443fb47e542a7d57caad7e1f57c2dc346a2529ae4b85c"},
	{"procs=1,2,4,8,16;exchange=basic,overlap;perturb=none,brownout,chaos@7", "e107d52311cc145c20cd53105f5e6bcda5b5d7672af70c3e1655d88f2192dcf3"},
	{"procs=1,2,4,8,16;partitioner=metis,rcb,rowband", "949c609e467cab48d602b3f298824d011004a2e38aa2f6ef26be6f781658a529"},
	{"procs=1,2,4,8,16;network=uniform,hypercube,hetgrid", "f44a3ee907e04f4c2a7849803443d1891d681b1b14debae6b28479625772cc75"},
	{"procs=4,8,16;partitioner=metis,rectband,bf", "453fe44e53b1a1d38c30986fca2d17db481b236d663e8aa967b94da53b58e166"},
	{"procs=2,4,8", "ff8cb1ee87520005499eac08188bae93b584b06c72724638e0dbb2bc5d4022bc"},
	{"procs=1,2,4,8;iters=10", "303d9117d71c6297a13807a71d290af96dcfe41203d9f3f6eab9201295996f76"},
	{"procs=1,2,4,16;partitioner=metis,pagrid", "526b48a3a422b4d38f79d514af106971d80f3a4cd993a63dd630bb042874c2d5"},
	{"procs=4,8;balancer=none,diffusion,centralized", "b0c46321a31b90636043e0c4e6107a339bfb216e8a2998fbfe28c165c747b3b2"},
	{"procs=8;network=hypercube,mesh2d,fattree", "b98f21ad4842cce7822df7f12ea84273890f4df715279279455cbc9c13b17898"},
	{"procs=8;iters=20", "870904e5ffc69b58accda00f384092a3b067b9340b6e082248f7982a9d0b6e7b"},
}

// renderCells prints each cell's parameter-space fields by name, in
// declaration order, and nothing of the struct's shape. It skips the
// embedded platform.Host, whose fields no cell of an enumeration sets.
func renderCells(cells []scenario.Params) string {
	var b strings.Builder
	for _, p := range cells {
		v := reflect.ValueOf(p)
		b.WriteByte('{')
		for i := range v.NumField() {
			if f := v.Type().Field(i); !f.Anonymous {
				fmt.Fprintf(&b, "%s:%v ", f.Name, v.Field(i))
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// TestCellsOrderPinned pins the cell enumeration — values and order, hence
// the speedup groups, shard bounds and cache keys derived from it — to
// digests of renderCells, which does not change with the shape of Params.
// They were recorded next to digests of fmt.Sprintf("%+v", Cells()) taken
// before the enumeration became a loop over the axis table, while both
// held.
func TestCellsOrderPinned(t *testing.T) {
	rendered := func(ax Axes) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(renderCells(ax.Cells()))))
	}
	if got, want := rendered(Axes{}), "5360f9590e242062abc0c66f42cdfbd7b8421ea0701ccd39bd8d86134733b729"; got != want {
		t.Errorf("Axes{}: rendered cells digest %s, want %s", got, want)
	}
	all, err := ParseAxes("iters=3,5;partitioner=metis,rcb;exchange=basic,overlap;buffers=pooled,unpooled;" +
		"balancer=none,diffusion;network=uniform,mesh2d;perturb=none,ramp;kernel=goroutine,event;procs=2,4")
	if err != nil {
		t.Fatal(err)
	}
	if n := all.Size(); n != 512 {
		t.Fatalf("two values on nine axes: Size() = %d, want 512", n)
	}
	if got, want := rendered(all), "486370f7167bbef70b23bcdd63e29ab01f0322a058e27974beee6a605d31f69a"; got != want {
		t.Errorf("nine two-valued axes: rendered cells digest %s, want %s", got, want)
	}
	for _, s := range benchSweeps {
		ax, err := ParseAxes(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rendered(ax); got != s.rendered {
			t.Errorf("%q: rendered cells digest %s, want %s", s.spec, got, s.rendered)
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
			if o, err := one.One(); err != nil || o.Size() != 1 || !reflect.DeepEqual(o.Cells()[0], p) {
				t.Errorf("key %q: One() = %+v, %v; want the one-cell sweep of Single's cell", key, o, err)
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

// TestCellKeyPinned holds one full key byte for byte. Persisted cells are
// named by its sha256 and shard manifests compare it, so a change to its
// spelling orphans every stored cell. Every field is set away from its
// default except buffers, whose one accepted value is the default.
func TestCellKeyPinned(t *testing.T) {
	key, err := CellKey(mustScenario("heat"), scenario.Params{
		Procs: 12, Partitioner: "pagrid", Exchange: "overlap", Buffers: "pooled",
		Balancer: "diffusion", Network: "mesh2d", Perturb: "chaos@7", Kernel: "pevent",
		Iterations: 33, BalanceEvery: 4, BalanceRounds: 3,
	})
	const want = "v1|heat|procs=12|part=pagrid|exchange=overlap|buffers=pooled|balancer=diffusion|network=mesh2d|perturb=chaos@7|kernel=pevent|iters=33|balevery=4|balrounds=3"
	if err != nil || key != want {
		t.Errorf("CellKey = %q (%v), want %q", key, err, want)
	}
}

// TestCellKeyEchoesKernelName: every kernel name selects the same bytes,
// but each is still accepted, echoed by Normalize and carried in the cell
// key, because persisted keys, reports and snapshots name it.
func TestCellKeyEchoesKernelName(t *testing.T) {
	sc := mustScenario("heat")
	for _, name := range mpi.KernelNames() {
		p, err := sc.Normalize(scenario.Params{Kernel: name})
		key, kerr := CellKey(sc, scenario.Params{Kernel: name})
		if err != nil || kerr != nil || p.Kernel != name || !strings.Contains(key, "|kernel="+name+"|") {
			t.Errorf("kernel %s: Normalize echoes %q (%v), CellKey %s (%v)", name, p.Kernel, err, key, kerr)
		}
	}
}
