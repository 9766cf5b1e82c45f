package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ic2mpi/internal/fault"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/trace"
)

// runWithSnapshots executes cfg uninterrupted, capturing a snapshot at
// every iteration boundary, and returns the golden result, the golden
// trace JSONL, and the snapshots keyed by iteration.
func runWithSnapshots(t *testing.T, cfg Config) (*Result, []byte, map[int]*RunSnapshot) {
	t.Helper()
	snaps := make(map[int]*RunSnapshot)
	var rec trace.Recorder
	cfg.Trace = &rec
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = func(s *RunSnapshot) error {
		if snaps[s.Iter] != nil {
			return fmt.Errorf("duplicate snapshot for iteration %d", s.Iter)
		}
		snaps[s.Iter] = s
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), snaps
}

// assertResumeEquivalence restores cfg from every captured epoch and
// verifies the resumed run reproduces the golden result, stats and trace
// bytes exactly.
func assertResumeEquivalence(t *testing.T, cfg Config) {
	t.Helper()
	golden, goldenTrace, snaps := runWithSnapshots(t, cfg)
	if len(snaps) != cfg.Iterations-1 {
		t.Fatalf("captured %d snapshots, want %d", len(snaps), cfg.Iterations-1)
	}
	for k := 1; k < cfg.Iterations; k++ {
		snap := snaps[k]
		if snap == nil {
			t.Fatalf("no snapshot at iteration %d", k)
		}
		resumed := cfg
		var rec trace.Recorder
		resumed.Trace = &rec
		resumed.CheckpointEvery = 0
		resumed.CheckpointSink = nil
		resumed.ResumeFrom = snap
		res, err := Run(resumed)
		if err != nil {
			t.Fatalf("resume at iteration %d: %v", k, err)
		}
		if !reflect.DeepEqual(res, golden) {
			t.Fatalf("resume at iteration %d: result differs from uninterrupted run\n got %+v\nwant %+v", k, res, golden)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), goldenTrace) {
			t.Fatalf("resume at iteration %d: trace JSONL differs from uninterrupted run", k)
		}
	}
}

func checkpointConfig(t *testing.T, procs int) Config {
	cfg := baseConfig(hexGrid(t, 8, 8), procs)
	cfg.Iterations = 9
	cfg.BalanceEvery = 2
	cfg.Balancer = thresholdBalancer{}
	return cfg
}

// resumeWorkers are the worker counts the resume tests run at, the
// automatic count and one, each labelled by the kernel name that selected
// it before every name ran one engine, so the subtest names are stable.
var resumeWorkers = []struct {
	label   string
	workers int
}{{"kernel=goroutine", 0}, {"kernel=event", 1}}

func TestResumeEquivalenceEveryEpoch(t *testing.T) {
	for _, w := range resumeWorkers {
		for _, procs := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s procs=%d", w.label, procs), func(t *testing.T) {
				cfg := checkpointConfig(t, procs)
				cfg.KernelWorkers = w.workers
				assertResumeEquivalence(t, cfg)
			})
		}
	}
}

func TestResumeEquivalenceOverlappedPooled(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	cfg.Overlap = true
	assertResumeEquivalence(t, cfg)
}

func TestResumeEquivalencePerturbed(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	sched, err := fault.Parse("brownout")
	if err != nil {
		t.Fatal(err)
	}
	net, err := fault.Wrap(netmodel.NewUniform(netmodel.Origin2000()), sched, cfg.Procs, cfg.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	for _, w := range resumeWorkers {
		t.Run(w.label, func(t *testing.T) {
			c := cfg
			c.KernelWorkers = w.workers
			assertResumeEquivalence(t, c)
		})
	}
}

// TestCheckpointDoesNotPerturbRun pins the capture path's zero-cost
// contract: a run with checkpointing enabled is byte-identical (result,
// stats, trace) to the same run without it.
func TestCheckpointDoesNotPerturbRun(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	var plainRec trace.Recorder
	plain := cfg
	plain.Trace = &plainRec
	plainRes, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	if err := trace.WriteJSONL(&plainBuf, &plainRec); err != nil {
		t.Fatal(err)
	}
	chkRes, chkTrace, _ := runWithSnapshots(t, cfg)
	if !reflect.DeepEqual(chkRes, plainRes) {
		t.Fatalf("checkpointed run result differs from plain run")
	}
	if !bytes.Equal(chkTrace, plainBuf.Bytes()) {
		t.Fatalf("checkpointed run trace differs from plain run")
	}
}

func TestResumeRejectsMismatchedSnapshot(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	_, _, snaps := runWithSnapshots(t, cfg)
	snap := snaps[2]

	cases := []struct {
		name   string
		mutate func(c *Config, s *RunSnapshot)
	}{
		{"wrong procs", func(c *Config, s *RunSnapshot) {
			c.Procs = 2
			c.InitialPartition = blockPart(c.Graph.NumVertices(), 2)
		}},
		{"wrong iterations", func(c *Config, s *RunSnapshot) { c.Iterations = 20 }},
		{"iter out of range", func(c *Config, s *RunSnapshot) { s.Iter = c.Iterations }},
		{"owner out of range", func(c *Config, s *RunSnapshot) { s.Owner[0] = 99 }},
		{"truncated ranks", func(c *Config, s *RunSnapshot) { s.Ranks = s.Ranks[:2] }},
		{"nil node data", func(c *Config, s *RunSnapshot) { s.Ranks[0].Nodes[0].Data = nil }},
		{"ownership disagreement", func(c *Config, s *RunSnapshot) {
			s.Ranks[0].Nodes[0].Owned = !s.Ranks[0].Nodes[0].Owned
		}},
		{"missing shadow", func(c *Config, s *RunSnapshot) {
			nodes := s.Ranks[0].Nodes
			i := slices.IndexFunc(nodes, func(ns NodeSnap) bool { return !ns.Owned })
			s.Ranks[0].Nodes = slices.Delete(nodes, i, i+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.CheckpointEvery = 0
			c.CheckpointSink = nil
			s := cloneSnapshot(snap)
			tc.mutate(&c, s)
			c.ResumeFrom = s
			_, err := Run(c)
			if err == nil {
				t.Fatalf("resume with %s succeeded, want error", tc.name)
			}
			if strings.Contains(err.Error(), "panicked") {
				t.Fatalf("resume with %s: %v; want a refusal, not a recovered panic", tc.name, err)
			}
		})
	}
}

// cloneSnapshot deep-copies a snapshot so mutation cases stay independent.
func cloneSnapshot(s *RunSnapshot) *RunSnapshot {
	out := *s
	out.Owner = append([]int(nil), s.Owner...)
	out.Ranks = make([]RankSnap, len(s.Ranks))
	for i, rs := range s.Ranks {
		cp := rs
		cp.Nodes = append([]NodeSnap(nil), rs.Nodes...)
		out.Ranks[i] = cp
	}
	out.TraceSamples = append([]trace.Sample(nil), s.TraceSamples...)
	out.TraceMigrations = append([]trace.Migration(nil), s.TraceMigrations...)
	out.TraceEdgeCuts = append([]int(nil), s.TraceEdgeCuts...)
	return &out
}
