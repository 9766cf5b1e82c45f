package checkpoint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
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

// TestDecodeRejectsMalformedHistory drives the history checks on the path
// a snapshot file takes: out-of-order iterations, iterations beyond the
// snapshot cut, and per-sample vectors of the wrong width all decode, and
// platform.Run refuses each before any rank runs.
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
		Iterations:   6,
		Network:      netmodel.NewUniform(netmodel.Origin2000()),
		Balancer:     &balance.Predictive{},
		BalanceEvery: 2,
		Host: platform.Host{CheckpointEvery: 5, CheckpointSink: func(s *platform.RunSnapshot) error {
			snap = s
			return nil
		}},
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
			refused(t, cfg, data, "history")
		})
	}
	if err := resume(t, cfg, valid); err != nil {
		t.Fatalf("valid input refused: %v", err)
	}
}

// TestDecodeRejectsMalformedInput feeds each malformed snapshot down the
// path a file takes, Decode and then platform.Run: the wire cases are
// refused by Decode, the structural ones by the run's checks before any
// rank runs, each with a named error and none with a recovered panic.
func TestDecodeRejectsMalformedInput(t *testing.T) {
	cfg, _, _, snaps := captureSnapshots(t)
	cfg.Trace = &trace.Recorder{}
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
	rank0Nodes := func(m map[string]any) []any { return m["ranks"].([]any)[0].(map[string]any)["nodes"].([]any) }
	out2 := func(h map[string]any) []any { return h["Out"].([]any)[2].([]any) }

	// want is a fragment of the refusal: "checkpoint:" for Decode's wire
	// checks, the broken rule for the run's structural checks.
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":           {nil, "checkpoint:"},
		"not json":        {[]byte("ceci n'est pas un snapshot"), "checkpoint:"},
		"truncated":       {valid[:len(valid)/2], "checkpoint:"},
		"version skew":    {mutate(func(m map[string]any) { m["version"] = "ic2mpi.snapshot.v999" }), "checkpoint:"},
		"missing version": {mutate(func(m map[string]any) { delete(m, "version") }), "checkpoint:"},
		"unknown field":   {mutate(func(m map[string]any) { m["extra"] = true }), "checkpoint:"},
		"unknown codec":   {mutate(func(m map[string]any) { firstNode(t, m)["t"] = "mystery" }), "checkpoint:"},
		"corrupt payload": {mutate(func(m map[string]any) { firstNode(t, m)["v"] = "not-a-number" }), "checkpoint:"},
		// A node id is 32 bits: the last node's id plus 1<<32 once wrapped
		// back to that id and resumed.
		"node id overflow": {mutate(func(m map[string]any) {
			nodes := rank0Nodes(m)
			last := nodes[len(nodes)-1].(map[string]any)
			last["id"] = last["id"].(float64) + 1<<32
		}), "checkpoint:"},
		"short phase":     {mutate(func(m map[string]any) { m["ranks"].([]any)[0].(map[string]any)["phase_s"] = []any{1.0} }), "checkpoint:"},
		"orphan trace":    {mutate(func(m map[string]any) { m["has_trace"] = false }), "checkpoint:"},
		"hex side":        {hexUnit("Side", 9, units), "checkpoint:"},
		"hex strength":    {hexUnit("Strength", -4, units), "checkpoint:"},
		"hex out side":    {hexUnit("Side", 2, out2), "checkpoint:"},
		"hex out dead":    {hexUnit("Strength", 0, out2), "checkpoint:"},
		"zero procs":      {mutate(func(m map[string]any) { m["procs"] = 0 }), "has 0 procs"},
		"iter past run":   {mutate(func(m map[string]any) { m["iter"] = m["iterations"] }), "cut at iteration"},
		"ranks truncated": {mutate(func(m map[string]any) { m["ranks"] = m["ranks"].([]any)[:1] }), "rank records"},
		"rank mislabeled": {mutate(func(m map[string]any) { m["ranks"].([]any)[0].(map[string]any)["rank"] = 3 }), "labeled rank"},
		"unsorted nodes": {mutate(func(m map[string]any) {
			nodes := rank0Nodes(m)
			nodes[0], nodes[1] = nodes[1], nodes[0]
		}), "not strictly ascending"},
		"node out of range": {mutate(func(m map[string]any) {
			nodes := rank0Nodes(m)
			nodes[len(nodes)-1].(map[string]any)["id"] = 1 << 30
		}), "out-of-range node"},
		"trace mismatch": {mutate(func(m map[string]any) { m["trace_samples"] = m["trace_samples"].([]any)[:1] }), "samples"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			refused(t, cfg, tc.data, tc.want)
		})
	}

	// And the unmutated bytes still decode, and the fixture's snapshot
	// resumes, so the cases above failed for the right reason.
	if _, _, err := Decode(validHex); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if err := resume(t, cfg, valid); err != nil {
		t.Fatalf("valid input refused: %v", err)
	}
}

// resume takes data down the path a snapshot file takes: Decode, then
// platform.Run resuming cfg. It returns the refusal, if any, and fails
// the test on a recovered panic.
func resume(t *testing.T, cfg platform.Config, data []byte) error {
	t.Helper()
	_, snap, err := Decode(data)
	if err != nil {
		return err
	}
	cfg.CheckpointEvery, cfg.CheckpointSink, cfg.ResumeFrom = 0, nil, snap
	_, err = platform.Run(cfg)
	if err != nil && strings.Contains(err.Error(), "panicked") {
		t.Fatalf("resume recovered a panic: %v", err)
	}
	return err
}

// refused asserts that resuming data into cfg is refused with an error
// naming want.
func refused(t *testing.T, cfg platform.Config, data []byte, want string) {
	t.Helper()
	err := resume(t, cfg, data)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume got %v, want a refusal naming %q", err, want)
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
	// total robustness on the path a file takes: Decode errors on bad
	// input, and a snapshot it accepts resumes into the fixture's run or
	// is refused; neither ever panics. The fixture is traced and balanced
	// by a history-fed balancer every iteration, so the seed carries trace
	// rows, migrations and a history window.
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
			if int(id) < n/2 {
				return self, 4e-5
			}
			return self, 1e-5
		},
		Iterations:      3,
		Network:         netmodel.NewUniform(netmodel.Origin2000()),
		Balancer:        &balance.Predictive{},
		BalanceEvery:    1,
		CheckInvariants: true,
		Host: platform.Host{Trace: &trace.Recorder{}, CheckpointEvery: 1, CheckpointSink: func(s *platform.RunSnapshot) error {
			snaps[s.Iter] = s
			return nil
		}},
	}
	if _, err := platform.Run(cfg); err != nil {
		f.Fatal(err)
	}
	if s := snaps[2]; len(s.Ranks[0].History) == 0 || len(s.TraceSamples) == 0 || len(s.TraceMigrations) == 0 {
		f.Fatal("fixture snapshot lacks a history window, trace rows or a migration")
	}
	valid, err := Encode(Meta{CellKey: "fuzz"}, snaps[2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.Replace(valid, []byte(Version), []byte("ic2mpi.snapshot.v0"), 1))
	f.Add([]byte(`{"version":"ic2mpi.snapshot.v1"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	// The first cut is the smallest real snapshot, so it leaves the
	// fewest bytes between a mutation and a node id.
	first, err := Encode(Meta{CellKey: "fuzz"}, snaps[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(first)

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
		resume(t, cfg, data)
	})
}

// TestFuzzCorpusPinned keeps the checked-in corpus honest: every seed
// takes the path a file takes without panicking, and each is refused,
// by Decode or by the resumed run.
func TestFuzzCorpusPinned(t *testing.T) {
	cfg, _, _, _ := captureSnapshots(t)
	for i, data := range [][]byte{
		[]byte(`{"version":"ic2mpi.snapshot.v999"}`),
		[]byte(`{"version":"ic2mpi.snapshot.v1","meta":{"cell_key":""},"iter":1,"procs":1,"iterations":2,"owner":[0],"ranks":[],"has_trace":false}`),
		[]byte(`{"version":"ic2mpi.snapshot.v1","iter":-1}`),
	} {
		if err := resume(t, cfg, data); err == nil {
			t.Fatalf("corpus seed %d resumed without error", i)
		}
	}
}
