package battlefield_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// dataDigest is the SHA-256 of the registered checkpoint codec's bytes for
// every node of data, in node order: the nodes are put in a one-rank
// snapshot and encoded, so the bytes are the ones a checkpoint file would
// hold — a nil Units slice ("null") and an empty one ("[]") hash apart.
func dataDigest(t *testing.T, iter int, data []platform.NodeData) string {
	t.Helper()
	nodes := make([]platform.NodeSnap, len(data))
	for v, d := range data {
		nodes[v] = platform.NodeSnap{ID: graph.NodeID(v), Owned: true, Data: d}
	}
	raw, err := checkpoint.Encode(checkpoint.Meta{}, &platform.RunSnapshot{
		Iter:  iter,
		Procs: 1,
		Owner: make([]int, len(data)),
		Ranks: []platform.RankSnap{{Nodes: nodes}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// resultDigest is dataDigest of the run's final data, extended with
// everything else a run reports (floats by their bits).
func resultDigest(t *testing.T, res *platform.Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintln(h, dataDigest(t, 0, res.FinalData), math.Float64bits(res.Elapsed))
	for _, phase := range res.PhaseTimes {
		for _, s := range phase {
			fmt.Fprintln(h, math.Float64bits(s))
		}
	}
	for _, st := range res.Stats {
		fmt.Fprintln(h, st.MessagesSent, st.MessagesReceived, st.BytesSent, st.BytesReceived, math.Float64bits(st.IdleSeconds))
	}
	fmt.Fprintln(h, res.FinalPartition, res.Migrations)
	return hex.EncodeToString(h.Sum(nil))
}

// battleConfig is the registered battlefield scenario's platform
// configuration at p, with the final gather on.
func battleConfig(t *testing.T, p scenario.Params) *platform.Config {
	t.Helper()
	sc, err := scenario.Get("battlefield")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Config(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipFinalGather = false
	return cfg
}

// pinnedSteps[k-1] is dataDigest of the thesis' 32x32 battle after k time
// steps of the sequential reference, recorded from the node function that
// deep-copied every hex in every sub-phase (commit 9d69e0e) before the
// phases stopped allocating for quiet hexes. A hex whose units all died
// holds "Units":[] for the step it happened in and null afterwards; the
// digests hold the rewrite to that, not only to the unit rosters.
var pinnedSteps = [25]string{
	"c01f5645879c44b651b80caa99c50a860f6a8969f37fe6ec3a98074f84ca319f",
	"de248959f4010339c9c9b14936e503d6a6b5cd2f39fda40e205acb33497b3091",
	"ad419839e6cca76cf5367c84757d7b5a292b684c33395a79c3ddb45fb7eda1f9",
	"a45574c24e34603b2bcb64097c2be18445800d7a81ba20ba96fb0c483f3aaf07",
	"c28545c437b4755c589fbdb061c23b77acc795c8b637042e8ad700abf9de4ddc",
	"1e410b32713a7ea6ee4b49330060a456d201fb2ffcc0216a9a7e614cdaf8d49a",
	"95beb401e91215b9f82c3478fdd6bb9fffc351d98803e7609a966a2db28412b7",
	"1524b6f06010bf8a6d44e22cf8aec2b515d77f89f44e7e8078d1f7c7001d1af8",
	"a93e8b1301690da5e059faf670fbb1a7c26f97fd083d88ac4cea0ca69a1773ee",
	"10914f9e12daaf143bfe4b3528ab17de2484cdcf4b6781d8549f0980c340601b",
	"69850ae01ec0d9385d1c6505c1a7a22220328c77ef3c3b05a3e1e27140b83695",
	"e9b46b0e13d5a548c68e9f014625406aabe94303c7ea71c62c600a4c07b86932",
	"9899067fa92920774d7993062ef91ff7b3c586d52ff110a6e26bdc6369546676",
	"9c54b68353ed85e2a49151daec2ce43ccbba97d138c6b4ea11df85fe7178131b",
	"2eb3e3e821121ebfd0fc0922ead916286d4ee6ecb0fad87c5f3e5af306eb0108",
	"f1e3f4394c7fea913e0b9893c5b5ca2a60f68245f702a234755cbfbe123fa941",
	"010cb80f2cd096edcb43610bf426320ee2fc8eae34526a106123fe2069756943",
	"7e52a52a7e6c1adc95ff3a28485e90969be371aaca48634d1dc442a5c033ebad",
	"a1668d42064869426ff517da5df99f478a228be3ef6f9b3b5b38160274b4617c",
	"3de7868b2079d96c6b9fa8a5d086688350d2ab46c48060d1b9e78913514a52d9",
	"f5da6f3ef20e72928954df42302195038acaf2a692a47881e344e4b025c1f8f6",
	"3c604b74750fb2e06445a7cf67087a7e5c024a4418fe71699ac18c192fbd2c86",
	"67bd46565c455c9bed9f20ceac6199af3ff377345f37084a278fd01c4a90b9d8",
	"4829ccffd2d6bcdf81c4121677c76320df204175fc04b0c1f50a4ac4573aa331",
	"054325cc5243e5616a11ae0092c54d5b8f46a76abdb68f4ecb5e37c9cd5b6bc4",
}

func TestSequentialStepsPinned(t *testing.T) {
	wiped := 0
	for k := 1; k <= len(pinnedSteps); k++ {
		cfg := battleConfig(t, scenario.Params{Procs: 1, Iterations: k})
		data, err := platform.RunSequential(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := dataDigest(t, k, data); got != pinnedSteps[k-1] {
			t.Errorf("after step %d: digest %s, pinned %s", k, got, pinnedSteps[k-1])
		}
		for _, d := range data {
			if u := d.(*battlefield.HexData).Units; u != nil && len(u) == 0 {
				wiped++
			}
		}
	}
	if wiped == 0 {
		t.Error(`no step left a hex with "Units":[]: the digests do not cover the case their comment names`)
	}
}

// pinnedRuns holds resultDigest of 25-step distributed battles, recorded
// with pinnedSteps. The last row runs under a dynamic balancer that
// migrates hexes between ranks, so hex data also travels the migration
// path.
var pinnedRuns = []struct {
	name   string
	params scenario.Params
	moves  bool
	want   string
}{
	{name: "procs=4/metis", params: scenario.Params{Procs: 4, Partitioner: "metis"}, want: "fa39f9736db57e7a951cdd2a1a2f8ddb2d61421acf4e325acce46883b99e241b"},
	{name: "procs=4/rectband", params: scenario.Params{Procs: 4, Partitioner: "rectband"}, want: "c5c2ee6c7222d301eef3d967ed63db15d8181dc4ca016c1a226907e793377e93"},
	{name: "procs=4/bf", params: scenario.Params{Procs: 4, Partitioner: "bf"}, want: "ee7169d95834ed622dcbfe7ac3eb3d09e4481ee9c4e649c6c937b2a71a2431b1"},
	{name: "procs=8/metis", params: scenario.Params{Procs: 8, Partitioner: "metis"}, want: "e6700ea0ad78be28493fd5b99fcd6353c1d10b42cfe0de460d1e2fe7fedd187c"},
	{name: "procs=8/rectband", params: scenario.Params{Procs: 8, Partitioner: "rectband"}, want: "7fae2c6d5f9b256574c2cdd8c549436417dbe77adb86570aee90cf16b7d5beec"},
	{name: "procs=8/bf", params: scenario.Params{Procs: 8, Partitioner: "bf"}, want: "dd782ca1df1d2e79236baaf01100e04e2a2c581dad8b3be92fed85fd259d2b9c"},
	{name: "procs=16/metis", params: scenario.Params{Procs: 16, Partitioner: "metis"}, want: "6682a8bdba4d5e541ec965f8b52dbc6cf5cdc71c1d8cd53025dbb82bb023d27f"},
	{name: "procs=16/rectband", params: scenario.Params{Procs: 16, Partitioner: "rectband"}, want: "5dd50bbb9f157d5b57b247c8fa0005d4138c4edd8e806d9401e9d378167aa91a"},
	{name: "procs=16/bf", params: scenario.Params{Procs: 16, Partitioner: "bf"}, want: "3f1f2d16de83204c3de86eec45bfa486d63be47dbcdf3a156fa74f85b1d34ac8"},
	{name: "procs=8/rowband/centralized", params: scenario.Params{Procs: 8, Partitioner: "rowband", Balancer: "centralized", BalanceEvery: 4, BalanceRounds: 2}, moves: true, want: "6c39fbea62df06667931d62abab54253322c2b1908a5c71be259395ed6bb0103"},
}

func TestDistributedRunsPinned(t *testing.T) {
	for _, row := range pinnedRuns {
		t.Run(row.name, func(t *testing.T) {
			res, err := platform.Run(*battleConfig(t, row.params))
			if err != nil {
				t.Fatal(err)
			}
			if row.moves && res.Migrations == 0 {
				t.Fatal("the balanced row migrated no hex")
			}
			if got := resultDigest(t, res); got != row.want {
				t.Errorf("digest %s, pinned %s", got, row.want)
			}
		})
	}
}

// TestCheckpointResumeMatchesUninterrupted cuts a balanced 25-step battle at
// every step 1-24, sends each snapshot through the file encoding, and
// requires the run resumed from each cut to report what the uninterrupted
// one does. The step-12 cut must fall mid-combat, after migrations, and
// some cut must hold a roster emptied that step as "Units":[]: a snapshot
// carries the live value, not a normalized copy.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	params := pinnedRuns[len(pinnedRuns)-1].params
	cuts := make([][]byte, 0, 24)
	params.CheckpointEvery = 1
	params.CheckpointSink = func(s *platform.RunSnapshot) error {
		raw, err := checkpoint.Encode(checkpoint.Meta{}, s)
		cuts = append(cuts, raw)
		return err
	}
	whole, err := platform.Run(*battleConfig(t, params))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 24 {
		t.Fatalf("%d snapshots, want one after each of steps 1-24", len(cuts))
	}
	want := resultDigest(t, whole)
	if pinned := pinnedRuns[len(pinnedRuns)-1].want; want != pinned {
		t.Errorf("checkpointing moved the uninterrupted run: digest %s, pinned %s", want, pinned)
	}
	params.CheckpointEvery, params.CheckpointSink = 0, nil
	emptied := 0
	for k, cut := range cuts {
		if bytes.Contains(cut, []byte(`"Units":[]`)) {
			emptied++
		}
		_, snap, err := checkpoint.Decode(cut)
		if err != nil {
			t.Fatalf("cut at step %d: %v", k+1, err)
		}
		if snap.Iter != k+1 {
			t.Fatalf("cut %d holds step %d", k+1, snap.Iter)
		}
		if snap.Iter == 12 {
			destroyed, migrations := int64(0), 0
			for _, rs := range snap.Ranks {
				migrations += rs.Migrations
				for _, ns := range rs.Nodes {
					h := ns.Data.(*battlefield.HexData)
					destroyed += h.Destroyed[battlefield.Red] + h.Destroyed[battlefield.Blue]
				}
			}
			if destroyed == 0 || migrations == 0 {
				t.Fatalf("the step-12 cut is not mid-battle: %d strength destroyed, %d migrations before it", destroyed, migrations)
			}
		}
		params.ResumeFrom = snap
		resumed, err := platform.Run(*battleConfig(t, params))
		if err != nil {
			t.Fatalf("resume from step %d: %v", k+1, err)
		}
		if got := resultDigest(t, resumed); got != want {
			t.Errorf("run resumed from step %d: digest %s, uninterrupted %s", k+1, got, want)
		}
	}
	if emptied == 0 {
		t.Error(`no cut holds "Units":[]: the snapshot normalized the rosters emptied at a cut`)
	}
}
