package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// The shard tests run against a purpose-registered tiny scenario so the
// full sweep × shard-count × parallelism matrix stays fast.
func init() {
	scenario.Register(scenario.Scenario{
		Name:        "shardtest",
		Description: "tiny deterministic averaging workload for shard tests",
		Stresses:    "sharded sweep coverage and merge stability",
		Graph:       func() (*graph.Graph, error) { return graph.HexGrid(4, 6) },
		InitData:    func(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id) + 1) },
		Node: func(g *graph.Graph) platform.NodeFunc {
			return platform.Node(func(id graph.NodeID, iter, _ int, self platform.IntData, nbrs []platform.Neighbor[platform.IntData]) (platform.IntData, float64) {
				sum := int64(self)
				for _, nb := range nbrs {
					sum = sum*31 + int64(nb.Data)
				}
				return platform.IntData(sum + int64(iter)), 1e-4
			})
		},
		Iterations: 4,
	})
}

func testScenario(t testing.TB) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Get("shardtest")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// testAxes is a 6-cell sweep (3 processor counts × 2 kernels) with a
// 1-processor baseline in every speedup group.
func testAxes() experiments.Axes {
	return experiments.Axes{
		Procs:   []int{1, 2, 4},
		Kernels: []string{"goroutine", "event"},
	}
}

func TestBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 5, 6, 24, 100} {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			next := 0
			for i := 0; i < shards; i++ {
				lo, hi := Bounds(n, shards, i)
				if lo != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, i, lo, next)
				}
				if size := hi - lo; size < n/shards || size > (n+shards-1)/shards {
					t.Fatalf("n=%d shards=%d: shard %d has %d cells, want balanced", n, shards, i, size)
				}
				for j := lo; j < hi; j++ {
					if got := shardOf(n, shards, j); got != i {
						t.Fatalf("n=%d shards=%d: shardOf(%d) = %d, Bounds owns it to %d", n, shards, j, got, i)
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards cover [0,%d), want [0,%d)", n, shards, next, n)
			}
		}
	}
}

// TestManifestCoverage pins the headline sharding guarantee: at every
// shard count — including more shards than cells — each cell is owned by
// exactly one shard, and the manifest encodes/parses as a fixed point.
func TestManifestCoverage(t *testing.T) {
	sc := testScenario(t)
	ax := testAxes()
	cellCount := ax.Size()
	for _, shards := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if shards == 7 || shards == 16 {
				if shards <= cellCount {
					t.Fatalf("want a shard count above the %d-cell sweep", cellCount)
				}
			}
			m, err := New(sc, "procs=1,2,4;kernel=goroutine,event", ax, shards)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Cells) != cellCount {
				t.Fatalf("manifest has %d cells, want %d", len(m.Cells), cellCount)
			}
			seen := make([]int, shards)
			for i, c := range m.Cells {
				if c.Index != i || c.Done || c.Key == "" {
					t.Fatalf("fresh cell %d malformed: %+v", i, c)
				}
				if c.Shard < 0 || c.Shard >= shards {
					t.Fatalf("cell %d assigned to shard %d of %d", i, c.Shard, shards)
				}
				seen[c.Shard]++
			}
			total := 0
			for i, n := range seen {
				lo, hi := Bounds(cellCount, shards, i)
				if n != hi-lo {
					t.Fatalf("shard %d owns %d cells, Bounds says %d", i, n, hi-lo)
				}
				total += n
			}
			if total != cellCount {
				t.Fatalf("shards own %d cells in total, want %d — a cell is dropped or doubled", total, cellCount)
			}
			if len(m.Verify) != shards+1 {
				t.Fatalf("manifest lists %d verify commands, want %d", len(m.Verify), shards+1)
			}

			data, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(data)
			if err != nil {
				t.Fatalf("round-trip parse: %v", err)
			}
			again, err := parsed.Encode()
			if err != nil || !bytes.Equal(data, again) {
				t.Fatalf("manifest encode is not a fixed point")
			}
		})
	}
}

// sweepBytes encodes a report in every machine-readable format.
func sweepBytes(t *testing.T, rep *experiments.SweepReport) (jsonOut, csvOut, textOut []byte) {
	t.Helper()
	var j, c, x bytes.Buffer
	if err := experiments.WriteReport(&j, "json", rep); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteReport(&c, "csv", rep); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteReport(&x, "text", rep); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), x.Bytes()
}

// TestShardedSweepMergesByteIdentical is the shard tentpole's acid test:
// run the sweep unsharded, then sharded at several shard counts (with a
// serialize/parse handoff between every step, as separate machines would
// see), and require the merged report's JSON, CSV and text encodings to
// be byte-identical to the unsharded run's — at more than one host
// parallelism.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	sc := testScenario(t)
	ax := testAxes()
	golden, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, goldenCSV, goldenText := sweepBytes(t, golden)

	for _, shards := range []int{1, 2, 3, 7, 16} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d parallel=%d", shards, par), func(t *testing.T) {
				old := experiments.Parallelism
				experiments.Parallelism = par
				defer func() { experiments.Parallelism = old }()

				m, err := New(sc, "", ax, shards)
				if err != nil {
					t.Fatal(err)
				}
				// Each shard runs against its own parsed copy of the
				// manifest and hands completed cells back by merging the
				// serialized form — the distributed workflow in miniature.
				data, err := m.Encode()
				if err != nil {
					t.Fatal(err)
				}
				master, err := Parse(data)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < shards; i++ {
					worker, err := Parse(data)
					if err != nil {
						t.Fatal(err)
					}
					if err := worker.RunShard(sc, i); err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
					for _, idx := range masterRange(t, master, i) {
						master.Cells[idx] = worker.Cells[idx]
					}
				}
				if rem := master.Remaining(-1); len(rem) != 0 {
					t.Fatalf("%d cells remaining after all shards ran: %v", len(rem), rem)
				}
				merged, err := master.Merge(sc)
				if err != nil {
					t.Fatal(err)
				}
				j, c, x := sweepBytes(t, merged)
				if !bytes.Equal(j, goldenJSON) {
					t.Fatalf("merged JSON differs from unsharded sweep")
				}
				if !bytes.Equal(c, goldenCSV) {
					t.Fatalf("merged CSV differs from unsharded sweep")
				}
				if !bytes.Equal(x, goldenText) {
					t.Fatalf("merged text differs from unsharded sweep")
				}
			})
		}
	}
}

// masterRange returns the cell indices shard i owns in m.
func masterRange(t *testing.T, m *Manifest, i int) []int {
	t.Helper()
	lo, hi := Bounds(len(m.Cells), m.Shards, i)
	out := make([]int, 0, hi-lo)
	for j := lo; j < hi; j++ {
		out = append(out, j)
	}
	return out
}

// TestRunShardResumesFromPartialManifest pins incremental progress: a
// shard interrupted after persisting some cells re-runs only the
// remaining ones, and already-done cells keep their exact bytes.
func TestRunShardResumesFromPartialManifest(t *testing.T) {
	sc := testScenario(t)
	m, err := New(sc, "", testAxes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunShard(sc, 0); err != nil {
		t.Fatal(err)
	}
	partial, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Parse(partial)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Remaining(0)); got != 0 {
		t.Fatalf("shard 0 has %d cells remaining after completing, want 0", got)
	}
	if got := len(resumed.Remaining(-1)); got == 0 {
		t.Fatal("whole sweep complete after one of two shards ran")
	}
	// Re-running a finished shard must not touch its stored results.
	if err := resumed.RunShard(sc, 0); err != nil {
		t.Fatal(err)
	}
	unchanged, err := resumed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unchanged, partial) {
		t.Fatal("re-running a completed shard changed the manifest bytes")
	}
	if _, err := resumed.Merge(sc); err == nil {
		t.Fatal("Merge of an incomplete manifest succeeded, want error")
	}
	if err := resumed.RunShard(sc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Merge(sc); err != nil {
		t.Fatalf("merge after completing both shards: %v", err)
	}
}

func TestParseRejectsMalformedManifest(t *testing.T) {
	sc := testScenario(t)
	m, err := New(sc, "", testAxes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunShard(sc, 0); err != nil {
		t.Fatal(err)
	}
	valid, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(valid, &doc); err != nil {
			t.Fatal(err)
		}
		f(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cell := func(doc map[string]any, i int) map[string]any {
		return doc["cells"].([]any)[i].(map[string]any)
	}

	cases := map[string][]byte{
		"empty":               nil,
		"not json":            []byte("not a manifest"),
		"truncated":           valid[:len(valid)/2],
		"version skew":        mutate(func(d map[string]any) { d["version"] = "ic2mpi.manifest.v999" }),
		"missing version":     mutate(func(d map[string]any) { delete(d, "version") }),
		"unknown field":       mutate(func(d map[string]any) { d["extra"] = 1 }),
		"no scenario":         mutate(func(d map[string]any) { d["scenario"] = "" }),
		"zero shards":         mutate(func(d map[string]any) { d["shards"] = 0 }),
		"dropped cell":        mutate(func(d map[string]any) { d["cells"] = d["cells"].([]any)[1:] }),
		"index gap":           mutate(func(d map[string]any) { cell(d, 3)["index"] = 5 }),
		"empty key":           mutate(func(d map[string]any) { cell(d, 0)["key"] = "" }),
		"shard out of range":  mutate(func(d map[string]any) { cell(d, 0)["shard"] = 9 }),
		"non-contiguous":      mutate(func(d map[string]any) { cell(d, 0)["shard"] = 1 }),
		"done without result": mutate(func(d map[string]any) { delete(cell(d, 0), "result") }),
		"result without done": mutate(func(d map[string]any) { cell(d, 0)["done"] = false }),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(data); err == nil {
				t.Fatalf("Parse accepted %s manifest", name)
			}
		})
	}
	if _, err := Parse(valid); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestMergeRejectsForeignResults pins the no-silent-wrong-merge check: a
// stored result whose own parameters do not hash to the cell's key is
// refused, so shard outputs cannot be transplanted between cells.
func TestMergeRejectsForeignResults(t *testing.T) {
	sc := testScenario(t)
	m, err := New(sc, "", testAxes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunShard(sc, 0); err != nil {
		t.Fatal(err)
	}
	// Cells 0 and 1 differ in processor count; swap their results.
	m.Cells[0].Result, m.Cells[1].Result = m.Cells[1].Result, m.Cells[0].Result
	if _, err := m.Merge(sc); err == nil {
		t.Fatal("Merge accepted transplanted cell results")
	}
}

func TestRunShardRejectsWrongScenario(t *testing.T) {
	sc := testScenario(t)
	m, err := New(sc, "", testAxes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunShard(other, 0); err == nil {
		t.Fatal("RunShard accepted a different scenario than the manifest's")
	}
	if err := m.RunShard(sc, 2); err == nil {
		t.Fatal("RunShard accepted an out-of-range shard index")
	}
}

// TestCombineWorkerManifests pins the distributed handoff: each worker
// completes its own copy of the manifest, and Combine folds the copies
// into one complete manifest whose merge is byte-identical to the
// unsharded sweep. Disagreeing copies are refused.
func TestCombineWorkerManifests(t *testing.T) {
	sc := testScenario(t)
	ax := testAxes()
	golden, err := experiments.RunSweep(sc, ax)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, _, _ := sweepBytes(t, golden)

	const shards = 3
	fresh, err := New(sc, "", ax, shards)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Manifest, shards)
	for i := range workers {
		w, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunShard(sc, i); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	combined, err := Combine(workers...)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := combined.Merge(sc)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := sweepBytes(t, merged)
	if !bytes.Equal(j, goldenJSON) {
		t.Fatal("combined-manifest merge differs from unsharded sweep")
	}

	// A worker whose stored result disagrees must be refused.
	bad, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.RunShard(sc, 0); err != nil {
		t.Fatal(err)
	}
	bad.Cells[0].Result = json.RawMessage(`{"scenario":"shardtest"}`)
	if _, err := Combine(workers[0], bad); err == nil {
		t.Fatal("Combine accepted disagreeing cell results")
	}
	if _, err := Combine(); err == nil {
		t.Fatal("Combine of nothing succeeded")
	}
}

func TestParseShardSpec(t *testing.T) {
	for spec, want := range map[string][2]int{
		"1/1":  {0, 1},
		"1/4":  {0, 4},
		"4/4":  {3, 4},
		"2/16": {1, 16},
	} {
		i, n, err := ParseShardSpec(spec)
		if err != nil || i != want[0] || n != want[1] {
			t.Errorf("ParseShardSpec(%q) = (%d, %d, %v), want (%d, %d)", spec, i, n, err, want[0], want[1])
		}
	}
	for _, bad := range []string{"", "3", "0/4", "5/4", "-1/4", "a/b", "1/0", "1//2"} {
		if _, _, err := ParseShardSpec(bad); err == nil {
			t.Errorf("ParseShardSpec(%q) succeeded, want error", bad)
		}
	}
}
