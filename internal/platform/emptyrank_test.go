package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ic2mpi/internal/mpi"
	"ic2mpi/internal/trace"
)

// TestMigrationOntoEmptyRank runs a 4x6 hex grid on 6 ranks, ranks 4 and 5
// holding no node at the start, under plans that move nodes from rank 0
// onto rank 4 and later onto rank 5, with invariants checked after every
// iteration and migration round.
//
// The protocol itself never moves a node onto a rank that holds none:
// chooseMigratingNode takes only a node that is a shadow for the idle rank
// (Fig. 9), and no node is a shadow for a rank that owns nothing. Through
// Run, then, those pairs are dropped while the other pairs of the same
// plans migrate, so the empty ranks sit through every migration round. The
// moves themselves are made by runWithForcedMoves, which executes them as
// migrateRound does, the step balanceRound runs once a plan has named its
// nodes.
//
// Either way the final data must equal RunSequential's, a run at 1 worker
// must equal one at 3, and a cut before the first migration and one after
// it must resume to the uninterrupted run.
func TestMigrationOntoEmptyRank(t *testing.T) {
	base := baseConfig(hexGrid(t, 4, 6), 6)
	base.InitialPartition = blockPart(24, 4)
	base.Iterations = 10

	t.Run("planned", func(t *testing.T) {
		// Balancing at iterations 2, 4, 6 and 8; a run resumed after
		// iteration k has seen k/2 plans.
		plans := [][]Pair{
			{{Busy: 0, Idle: 4}, {Busy: 2, Idle: 1}},
			{{Busy: 0, Idle: 5}, {Busy: 3, Idle: 2}},
			{{Busy: 0, Idle: 4}, {Busy: 1, Idle: 5}, {Busy: 2, Idle: 3}},
			{{Busy: 0, Idle: 5}, {Busy: 2, Idle: 1}},
		}
		cfg := base
		cfg.BalanceEvery = 2
		cfg.DisableMigrationGuard = true
		planned := func(cfg Config, seen, workers int) Config {
			cfg.Balancer = &scriptedBalancer{plans: plans, call: seen}
			cfg.KernelWorkers = workers
			return cfg
		}
		res := assertMatchesSequential(t, planned(cfg, 0, 1))
		if res.Migrations == 0 {
			t.Fatal("no migration executed: the empty ranks sat through no migration round")
		}
		if slices.ContainsFunc(res.FinalPartition, func(p int) bool { return p >= 4 }) {
			t.Fatalf("a plan moved a node onto an empty rank: final partition %v", res.FinalPartition)
		}

		golden, goldenTrace, snaps := runWithSnapshots(t, planned(cfg, 0, 1))
		other, otherTrace, _ := runWithSnapshots(t, planned(cfg, 0, 3))
		if !reflect.DeepEqual(other, golden) || !bytes.Equal(otherTrace, goldenTrace) {
			t.Fatal("3 workers and 1 worker give different results or traces")
		}
		for _, cut := range []int{1, 3} {
			for _, workers := range []int{1, 3} {
				resumed := planned(cfg, cut/2, workers)
				var rec trace.Recorder
				resumed.Trace, resumed.ResumeFrom = &rec, snaps[cut]
				res, err := Run(resumed)
				if err != nil {
					t.Fatalf("resume after iteration %d: %v", cut, err)
				}
				var buf bytes.Buffer
				if err := trace.WriteJSONL(&buf, &rec); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, golden) || !bytes.Equal(buf.Bytes(), goldenTrace) {
					t.Fatalf("resume after iteration %d at %d workers differs from the uninterrupted run", cut, workers)
				}
			}
		}
	})

	t.Run("forced", func(t *testing.T) {
		// Node 2 goes from rank 0 to rank 4 after iteration 2 and node 3
		// to rank 5 after iteration 5: both are in rank 0's row, next to
		// rank 1's, and each move leaves rank 0 more than one node.
		moves := map[int][][]migration{2: {{{node: 2, from: 0, to: 4}}}, 5: {{{node: 3, from: 0, to: 5}}}}
		want, err := RunSequential(base)
		if err != nil {
			t.Fatal(err)
		}
		var golden *Result
		snaps := make(map[int]*RunSnapshot)
		for _, workers := range []int{1, 3} {
			cfg := base
			cfg.KernelWorkers = workers
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = func(s *RunSnapshot) error {
				snaps[s.Iter] = s
				return nil
			}
			res := runWithForcedMoves(t, cfg, moves)
			if !slices.Equal(res.FinalData, want) {
				t.Fatalf("%d workers: final data differs from the sequential reference", workers)
			}
			if res.FinalPartition[2] != 4 || res.FinalPartition[3] != 5 || res.Migrations != 2 {
				t.Fatalf("%d workers: %d migrations, nodes 2 and 3 end on ranks %d and %d; want 2, on 4 and 5",
					workers, res.Migrations, res.FinalPartition[2], res.FinalPartition[3])
			}
			if golden == nil {
				golden = res
			} else if !reflect.DeepEqual(res, golden) {
				t.Fatalf("%d workers and 1 worker give different results", workers)
			}
		}
		// A cut after the second move resumes through Run itself, with no
		// balancer, since no move follows; a cut before the first move and
		// one between the two resume through runWithForcedMoves, which
		// still has the later moves to make.
		for _, cut := range []int{5, 6, 8} {
			for _, workers := range []int{1, 3} {
				cfg := base
				cfg.KernelWorkers = workers
				cfg.ResumeFrom = snaps[cut]
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("resume after iteration %d: %v", cut, err)
				}
				if !reflect.DeepEqual(res, golden) {
					t.Fatalf("resume after iteration %d at %d workers differs from the uninterrupted run:\n got %+v\nwant %+v", cut, workers, res, golden)
				}
			}
		}
		for _, cut := range []int{1, 3} {
			cfg := base
			cfg.ResumeFrom = snaps[cut]
			later := make(map[int][][]migration)
			for iter, m := range moves {
				if iter > cut {
					later[iter] = m
				}
			}
			if res := runWithForcedMoves(t, cfg, later); !reflect.DeepEqual(res, golden) {
				t.Fatalf("resume after iteration %d differs from the uninterrupted run", cut)
			}
		}
	})
}

// runWithForcedMoves runs cfg's ranks as Run does, except that in place of
// balancing it executes the rounds moves[iter], each as migrateRound does
// and checked against the reference (checkedRound), at the end of
// iteration iter. A Config.ResumeFrom snapshot is resumed.
func runWithForcedMoves(t *testing.T, cfg Config, moves map[int][][]migration) *Result {
	t.Helper()
	c, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.ResumeFrom != nil {
		if err := validateResume(c, c.ResumeFrom); err != nil {
			t.Fatal(err)
		}
	}
	ranks, err := buildRanks(c)
	if err != nil {
		t.Fatal(err)
	}
	var col *snapCollector
	if c.CheckpointEvery > 0 {
		col = newSnapCollector(c)
	}
	res := &Result{Stats: make([]mpi.Stats, c.Procs)}
	for ph := range res.PhaseTimes {
		res.PhaseTimes[ph] = make([]float64, c.Procs)
	}
	elapsed := make([]float64, c.Procs)
	opts := mpi.Options{Procs: c.Procs, Cost: c.Network, Workers: c.KernelWorkers}
	err = mpi.Run(opts, func(comm *mpi.Comm) error {
		st := &ranks[comm.Rank()]
		st.comm = comm
		start, first := comm.Wtime(), 1
		if snap := c.ResumeFrom; snap != nil {
			rs := snap.Ranks[st.me]
			if err := comm.Restore(rs.Clock, rs.Stats); err != nil {
				return err
			}
			start, first = rs.Start, snap.Iter+1
		} else {
			comm.Charge(float64(st.initEntries()) * initPerEntry)
			st.phase[PhaseInit] += comm.Wtime() - start
		}
		for iter := first; iter <= c.Iterations; iter++ {
			before := st.phase[PhaseCompute]
			if err := st.computeAndCommunicate(iter, 0); err != nil {
				return err
			}
			st.workTime = st.phase[PhaseCompute] - before
			for _, round := range moves[iter] {
				t0 := comm.Wtime()
				if err := st.checkedRound(round); err != nil {
					return fmt.Errorf("iteration %d: %w", iter, err)
				}
				st.migrations += len(round)
				st.phase[PhaseLoadBalance] += comm.Wtime() - t0
			}
			if err := st.checkInvariants(); err != nil {
				return fmt.Errorf("iteration %d: %w", iter, err)
			}
			if col != nil && iter%c.CheckpointEvery == 0 && iter < c.Iterations {
				if err := col.contribute(st, iter, start); err != nil {
					return err
				}
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		elapsed[st.me] = comm.Wtime() - start
		final, err := c.Node.gather(st)
		if err != nil {
			return err
		}
		for ph := range res.PhaseTimes {
			res.PhaseTimes[ph][st.me] = st.phase[ph]
		}
		res.Stats[st.me] = comm.Stats()
		if st.me == 0 {
			res.FinalPartition = slices.Clone(st.owner)
			res.FinalData = final
			res.Migrations = st.migrations
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = slices.Max(elapsed)
	return res
}
