package checkpoint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/trace"
)

// captureSnapshots runs a small traced platform workload with a snapshot
// at every boundary and returns the golden result, trace bytes, and
// snapshots.
func captureSnapshots(t *testing.T) (platform.Config, *platform.Result, []byte, map[int]*platform.RunSnapshot) {
	t.Helper()
	g, err := graph.HexGrid(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = v * 4 / n
	}
	cfg := platform.Config{
		Graph:            g,
		Procs:            4,
		InitialPartition: part,
		InitData:         func(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id) + 1) },
		Node: func(id graph.NodeID, iter, _ int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
			sum := int64(self.(platform.IntData))
			for _, nb := range nbrs {
				sum = sum*31 + int64(nb.Data.(platform.IntData))
			}
			return platform.IntData(sum*7 + int64(id) + int64(iter)), 1e-4
		},
		Iterations: 6,
		Network:    netmodel.NewUniform(netmodel.Origin2000()),
	}
	snaps := make(map[int]*platform.RunSnapshot)
	run := cfg
	var rec trace.Recorder
	run.Trace = &rec
	run.CheckpointEvery = 1
	run.CheckpointSink = func(s *platform.RunSnapshot) error {
		snaps[s.Iter] = s
		return nil
	}
	res, err := platform.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	return cfg, res, buf.Bytes(), snaps
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg, golden, goldenTrace, snaps := captureSnapshots(t)
	meta := Meta{CellKey: "v1|test|procs=4"}
	for k, snap := range snaps {
		data, err := Encode(meta, snap)
		if err != nil {
			t.Fatalf("encode at %d: %v", k, err)
		}
		again, err := Encode(meta, snap)
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("encode at %d is not byte-stable", k)
		}
		gotMeta, decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("decode at %d: %v", k, err)
		}
		if gotMeta != meta {
			t.Fatalf("meta round trip: got %+v want %+v", gotMeta, meta)
		}
		if !reflect.DeepEqual(decoded, snap) {
			t.Fatalf("snapshot at %d did not round-trip", k)
		}

		// The acid test: a run resumed from the decoded snapshot must be
		// byte-identical to the uninterrupted run.
		resumed := cfg
		var rec trace.Recorder
		resumed.Trace = &rec
		resumed.ResumeFrom = decoded
		res, err := platform.Run(resumed)
		if err != nil {
			t.Fatalf("resume from decoded snapshot at %d: %v", k, err)
		}
		if !reflect.DeepEqual(res, golden) {
			t.Fatalf("resume from decoded snapshot at %d: result differs", k)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), goldenTrace) {
			t.Fatalf("resume from decoded snapshot at %d: trace differs", k)
		}
	}
}

// TestHistoryRoundTrip pins the `history` wire field added for
// history-fed balancers: a run under the predictive balancer checkpoints
// rank 0's balancing-history window, the encoding round-trips it
// exactly, and a resume from the decoded snapshot reproduces the
// uninterrupted run byte for byte. A run under a classic balancer must
// not emit the field at all — that omission is what keeps every
// pre-existing snapshot encoding byte-identical.
func TestHistoryRoundTrip(t *testing.T) {
	g, err := graph.HexGrid(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = v * 4 / n
	}
	mkCfg := func(b platform.Balancer) platform.Config {
		return platform.Config{
			Graph:            g,
			Procs:            4,
			InitialPartition: part,
			InitData:         func(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id) + 1) },
			Node: func(id graph.NodeID, iter, _ int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
				sum := int64(self.(platform.IntData))
				for _, nb := range nbrs {
					sum = sum*31 + int64(nb.Data.(platform.IntData))
				}
				// Skew work toward low node ids so balancing has something
				// to plan about.
				return platform.IntData(sum*7 + int64(iter)), 1e-4 * float64(1+int(id)%3)
			},
			Iterations:    8,
			Network:       netmodel.NewUniform(netmodel.Origin2000()),
			Balancer:      b,
			BalanceEvery:  2,
			BalanceRounds: 2,
		}
	}

	cfg := mkCfg(&balance.Predictive{})
	snaps := make(map[int]*platform.RunSnapshot)
	run := cfg
	var rec trace.Recorder
	run.Trace = &rec
	run.CheckpointEvery = 1
	run.CheckpointSink = func(s *platform.RunSnapshot) error {
		snaps[s.Iter] = s
		return nil
	}
	golden, err := platform.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	var goldenTrace bytes.Buffer
	if err := trace.WriteJSONL(&goldenTrace, &rec); err != nil {
		t.Fatal(err)
	}

	withHistory := 0
	for k, snap := range snaps {
		if len(snap.Ranks[0].History) > 0 {
			withHistory++
		}
		data, err := Encode(Meta{CellKey: "v1|history"}, snap)
		if err != nil {
			t.Fatalf("encode at %d: %v", k, err)
		}
		_, decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("decode at %d: %v", k, err)
		}
		if !reflect.DeepEqual(decoded, snap) {
			t.Fatalf("snapshot at %d (history len %d) did not round-trip", k, len(snap.Ranks[0].History))
		}
		resumed := cfg
		var rrec trace.Recorder
		resumed.Trace = &rrec
		resumed.ResumeFrom = decoded
		res, err := platform.Run(resumed)
		if err != nil {
			t.Fatalf("resume from decoded snapshot at %d: %v", k, err)
		}
		if !reflect.DeepEqual(res, golden) {
			t.Fatalf("resume at %d: result differs from uninterrupted run", k)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, &rrec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), goldenTrace.Bytes()) {
			t.Fatalf("resume at %d: trace differs from uninterrupted run", k)
		}
	}
	if withHistory == 0 {
		t.Fatal("no snapshot carried balancing history; the round-trip proved nothing")
	}

	// Same workload under a classic balancer: the wire format must not
	// mention history at all.
	classic := mkCfg(&balance.Diffusion{})
	var classicSnap *platform.RunSnapshot
	classic.CheckpointEvery = 4
	classic.CheckpointSink = func(s *platform.RunSnapshot) error {
		classicSnap = s
		return nil
	}
	if _, err := platform.Run(classic); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(Meta{CellKey: "v1|classic"}, classicSnap)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"history"`)) {
		t.Fatal("classic-balancer snapshot encodes a history field; pre-existing encodings are no longer byte-identical")
	}
}

// TestDecodeRejectsMalformedHistory drives the history-specific
// validation: out-of-order iterations, iterations beyond the snapshot
// cut, and per-sample vectors of the wrong width must all be rejected.
func TestDecodeRejectsMalformedHistory(t *testing.T) {
	g, err := graph.HexGrid(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = v * 2 / n
	}
	var snap *platform.RunSnapshot
	cfg := platform.Config{
		Graph:            g,
		Procs:            2,
		InitialPartition: part,
		InitData:         func(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id)) },
		Node: func(id graph.NodeID, iter, _ int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
			return self, 1e-5 * float64(1+int(id)%2)
		},
		Iterations:      6,
		Network:         netmodel.NewUniform(netmodel.Origin2000()),
		Balancer:        &balance.Predictive{},
		BalanceEvery:    2,
		CheckpointEvery: 5,
		CheckpointSink: func(s *platform.RunSnapshot) error {
			snap = s
			return nil
		},
	}
	if _, err := platform.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if snap == nil || len(snap.Ranks[0].History) < 2 {
		t.Fatalf("fixture snapshot lacks a multi-sample history window")
	}
	valid, err := Encode(Meta{CellKey: "k"}, snap)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(hist []any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		f(m["ranks"].([]any)[0].(map[string]any)["history"].([]any))
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := map[string][]byte{
		"descending iters":  mutate(func(h []any) { h[1].(map[string]any)["iter"] = h[0].(map[string]any)["iter"] }),
		"iter past cut":     mutate(func(h []any) { h[len(h)-1].(map[string]any)["iter"] = 1 << 30 }),
		"iter non-positive": mutate(func(h []any) { h[0].(map[string]any)["iter"] = 0 }),
		"short times":       mutate(func(h []any) { s := h[0].(map[string]any); s["times_s"] = s["times_s"].([]any)[:1] }),
		"short speeds":      mutate(func(h []any) { s := h[0].(map[string]any); s["speeds"] = s["speeds"].([]any)[:1] }),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Decode(data); err == nil {
				t.Fatalf("Decode accepted a snapshot with %s history", name)
			}
		})
	}
	if _, _, err := Decode(valid); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	_, _, _, snaps := captureSnapshots(t)
	valid, err := Encode(Meta{CellKey: "k"}, snaps[2])
	if err != nil {
		t.Fatal(err)
	}

	// A one-rank snapshot of one hex holding a unit and sending one on,
	// the shape the battlefield's pinned digests encode.
	hex := &battlefield.HexData{Units: []battlefield.Unit{{ID: 1, Side: battlefield.Red, Strength: 5}}}
	hex.Out[2] = []battlefield.Unit{{ID: 2, Side: battlefield.Blue, Strength: 3}}
	validHex, err := Encode(Meta{}, &platform.RunSnapshot{
		Iter:       1,
		Procs:      1,
		Iterations: 2,
		Owner:      []int{0},
		Ranks:      []platform.RankSnap{{Nodes: []platform.NodeSnap{{Owned: true, Data: hex}}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	mutateBytes := func(src []byte, f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(src, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mutate := func(f func(m map[string]any)) []byte { return mutateBytes(valid, f) }
	// hexUnit sets one field of the first unit in a lane of the hex.
	hexUnit := func(field string, v any, lane func(h map[string]any) []any) []byte {
		return mutateBytes(validHex, func(m map[string]any) {
			lane(firstNode(t, m)["v"].(map[string]any))[0].(map[string]any)[field] = v
		})
	}
	units := func(h map[string]any) []any { return h["Units"].([]any) }
	out2 := func(h map[string]any) []any { return h["Out"].([]any)[2].([]any) }

	cases := map[string][]byte{
		"empty":           nil,
		"not json":        []byte("ceci n'est pas un snapshot"),
		"truncated":       valid[:len(valid)/2],
		"version skew":    mutate(func(m map[string]any) { m["version"] = "ic2mpi.snapshot.v999" }),
		"missing version": mutate(func(m map[string]any) { delete(m, "version") }),
		"unknown field":   mutate(func(m map[string]any) { m["extra"] = true }),
		"zero procs":      mutate(func(m map[string]any) { m["procs"] = 0 }),
		"iter past run":   mutate(func(m map[string]any) { m["iter"] = m["iterations"] }),
		"ranks truncated": mutate(func(m map[string]any) { m["ranks"] = m["ranks"].([]any)[:1] }),
		"rank mislabeled": mutate(func(m map[string]any) { m["ranks"].([]any)[0].(map[string]any)["rank"] = 3 }),
		"unknown codec":   mutate(func(m map[string]any) { firstNode(t, m)["t"] = "mystery" }),
		"corrupt payload": mutate(func(m map[string]any) { firstNode(t, m)["v"] = "not-a-number" }),
		"unsorted nodes":  mutate(func(m map[string]any) { firstNode(t, m)["id"] = 1 << 30 }),
		"short phase":     mutate(func(m map[string]any) { m["ranks"].([]any)[0].(map[string]any)["phase_s"] = []any{1.0} }),
		"trace mismatch":  mutate(func(m map[string]any) { m["trace_samples"] = m["trace_samples"].([]any)[:1] }),
		"orphan trace":    mutate(func(m map[string]any) { m["has_trace"] = false }),
		"hex side":        hexUnit("Side", 9, units),
		"hex strength":    hexUnit("Strength", -4, units),
		"hex out side":    hexUnit("Side", 2, out2),
		"hex out dead":    hexUnit("Strength", 0, out2),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Decode(data); err == nil {
				t.Fatalf("Decode accepted %s input", name)
			}
		})
	}

	// And the unmutated bytes still decode, so the cases above failed for
	// the right reason.
	for _, ok := range [][]byte{valid, validHex} {
		if _, _, err := Decode(ok); err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
	}
}

func firstNode(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	ranks, ok := m["ranks"].([]any)
	if !ok || len(ranks) == 0 {
		t.Fatal("no ranks in encoded snapshot")
	}
	nodes, ok := ranks[0].(map[string]any)["nodes"].([]any)
	if !ok || len(nodes) == 0 {
		t.Fatal("no nodes in encoded snapshot")
	}
	return nodes[0].(map[string]any)
}

func TestEncodeRejectsUnknownDataType(t *testing.T) {
	_, _, _, snaps := captureSnapshots(t)
	snap := snaps[1]
	snap.Ranks[0].Nodes[0].Data = unknownData{}
	if _, err := Encode(Meta{}, snap); err == nil {
		t.Fatal("Encode accepted an unknown node data type")
	}
}

type unknownData struct{}

func (unknownData) SizeBytes() int { return 0 }

func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real encoding plus the interesting edges: truncations,
	// version skew, and structural corruption. The property under test is
	// total robustness — Decode errors on bad input, it never panics.
	g, err := graph.HexGrid(2, 4)
	if err != nil {
		f.Fatal(err)
	}
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = v * 2 / n
	}
	snaps := make(map[int]*platform.RunSnapshot)
	cfg := platform.Config{
		Graph:            g,
		Procs:            2,
		InitialPartition: part,
		InitData:         func(id graph.NodeID) platform.NodeData { return platform.IntData(int64(id)) },
		Node: func(id graph.NodeID, iter, _ int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
			return self, 1e-5
		},
		Iterations:      3,
		Network:         netmodel.NewUniform(netmodel.Origin2000()),
		CheckpointEvery: 1,
		CheckpointSink: func(s *platform.RunSnapshot) error {
			snaps[s.Iter] = s
			return nil
		},
	}
	if _, err := platform.Run(cfg); err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(Meta{CellKey: "fuzz"}, snaps[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.Replace(valid, []byte(Version), []byte("ic2mpi.snapshot.v0"), 1))
	f.Add([]byte(`{"version":"ic2mpi.snapshot.v1"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, snap, err := Decode(data)
		if err != nil {
			return
		}
		// Anything Decode accepts must be internally consistent enough to
		// re-encode, and the re-encoding must be a fixed point.
		out, err := Encode(meta, snap)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		meta2, snap2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if meta2 != meta || !reflect.DeepEqual(snap2, snap) {
			t.Fatal("Encode/Decode is not a fixed point")
		}
	})
}

// TestFuzzCorpusPinned keeps the checked-in corpus honest: every seed
// must exercise Decode without panicking, and the known-bad ones error.
func TestFuzzCorpusPinned(t *testing.T) {
	for i, data := range [][]byte{
		[]byte(`{"version":"ic2mpi.snapshot.v999"}`),
		[]byte(`{"version":"ic2mpi.snapshot.v1","meta":{"cell_key":""},"iter":1,"procs":1,"iterations":2,"owner":[0],"ranks":[],"has_trace":false}`),
		[]byte(`{"version":"ic2mpi.snapshot.v1","iter":-1}`),
	} {
		if _, _, err := Decode(data); err == nil {
			t.Fatalf("corpus seed %d decoded without error", i)
		}
	}
}
