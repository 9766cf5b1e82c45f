package platform

// Trace plumbing: the per-iteration samples recorded through Config.Trace
// must be consistent with the run's aggregate Result — the samples are
// the same phase accounting, just sliced per iteration — and attaching a
// recorder must not change the simulated timeline.

import (
	"math"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/trace"
)

// tracedConfig is an imbalanced dynamic run: proc 1's block runs coarse,
// so the threshold balancer migrates work and the trace sees balance
// time, migrations and an evolving edge-cut.
func tracedConfig(t *testing.T) Config {
	g := hexGrid(t, 8, 8)
	cfg := baseConfig(g, 4)
	cfg.Node = Node(func(id graph.NodeID, iter, _ int, self IntData, nbrs []Neighbor[IntData]) (IntData, float64) {
		sum := int64(self)
		for _, nb := range nbrs {
			sum += int64(nb.Data)
		}
		cost := 0.3e-3
		if int(id) >= 16 && int(id) < 32 {
			cost = 3e-3
		}
		return IntData(sum / int64(len(nbrs)+1)), cost
	})
	cfg.Iterations = 25
	cfg.Balancer = thresholdBalancer{}
	cfg.BalanceEvery = 5
	return cfg
}

func TestTraceConsistentWithResult(t *testing.T) {
	cfg := tracedConfig(t)
	rec := &trace.Recorder{}
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rec.Procs() != cfg.Procs || rec.Iterations() != cfg.Iterations {
		t.Fatalf("recorder sized %dx%d, want %dx%d", rec.Procs(), rec.Iterations(), cfg.Procs, cfg.Iterations)
	}

	// Per-processor sums of the iteration samples must telescope back to
	// the aggregate phase times (compute, communicate, balance; overheads
	// are the sum of two phases).
	sums := make(map[int]*trace.Sample)
	for p := 0; p < cfg.Procs; p++ {
		sums[p] = &trace.Sample{}
	}
	for _, s := range rec.Samples() {
		if s.Iter < 1 || s.Iter > cfg.Iterations {
			t.Fatalf("sample with iter %d", s.Iter)
		}
		acc := sums[s.Proc]
		acc.ComputeS += s.ComputeS
		acc.OverheadS += s.OverheadS
		acc.CommS += s.CommS
		acc.BalanceS += s.BalanceS
		acc.MsgsSent += s.MsgsSent
		acc.BytesSent += s.BytesSent
		if s.IdleS < 0 || s.IdleS > s.CommS+s.BalanceS+1e-12 {
			t.Errorf("iter %d proc %d: idle %.9f outside [0, comm+balance=%.9f]",
				s.Iter, s.Proc, s.IdleS, s.CommS+s.BalanceS)
		}
	}
	const tol = 1e-9
	for p := 0; p < cfg.Procs; p++ {
		acc := sums[p]
		checks := []struct {
			name      string
			got, want float64
		}{
			{"compute", acc.ComputeS, res.PhaseTimes[PhaseCompute][p]},
			{"overhead", acc.OverheadS, res.PhaseTimes[PhaseComputeOverhead][p] + res.PhaseTimes[PhaseCommOverhead][p]},
			{"communicate", acc.CommS, res.PhaseTimes[PhaseCommunicate][p]},
			{"balance", acc.BalanceS, res.PhaseTimes[PhaseLoadBalance][p]},
		}
		for _, c := range checks {
			if math.Abs(c.got-c.want) > tol {
				t.Errorf("proc %d: summed %s %.12f != aggregate %.12f", p, c.name, c.got, c.want)
			}
		}
		if acc.MsgsSent > res.Stats[p].MessagesSent || acc.BytesSent > res.Stats[p].BytesSent {
			t.Errorf("proc %d: summed counters (%d msgs, %d bytes) exceed aggregate (%d, %d)",
				p, acc.MsgsSent, acc.BytesSent, res.Stats[p].MessagesSent, res.Stats[p].BytesSent)
		}
	}

	// Migration events must match the aggregate count, and the final
	// edge-cut series entry must describe the final partition.
	if got := len(rec.Migrations()); got != res.Migrations {
		t.Errorf("%d migration events, Result.Migrations %d", got, res.Migrations)
	}
	if res.Migrations == 0 {
		t.Error("run executed no migrations; trace not exercised across ownership changes")
	}
	series := rec.Series()
	last := series[len(series)-1]
	if want := partitionCut(cfg.Graph, res.FinalPartition); last.EdgeCut != want {
		t.Errorf("final series edge-cut %d, partitionCut of final partition %d", last.EdgeCut, want)
	}
	for _, d := range series {
		if d.Imbalance < 1.0 {
			t.Errorf("iter %d: imbalance ratio %v < 1", d.Iter, d.Imbalance)
		}
		if d.EdgeCut < 0 {
			t.Errorf("iter %d: edge-cut not recorded", d.Iter)
		}
	}
}

func TestTraceDoesNotPerturbTimeline(t *testing.T) {
	cfg := tracedConfig(t)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Trace = &trace.Recorder{}
	withRec, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != withRec.Elapsed {
		t.Errorf("tracing changed elapsed: %v != %v", plain.Elapsed, withRec.Elapsed)
	}
	if plain.Migrations != withRec.Migrations {
		t.Errorf("tracing changed migrations: %d != %d", plain.Migrations, withRec.Migrations)
	}
	for v := range plain.FinalData {
		if plain.FinalData[v] != withRec.FinalData[v] {
			t.Fatalf("tracing changed node %d data: %v != %v", v, plain.FinalData[v], withRec.FinalData[v])
		}
	}
}
