package platform

import (
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/trace"
)

// Run executes the platform's full flow of control (Fig. 6): graph
// partitioner output in, initialization, then the iteration loop of
// computation, communication and periodic load balancing, and finally a
// gather of results. It blocks until every virtual processor finishes and
// returns the aggregated Result. The last barrier is crossed in the run only
// when the gather follows it; without one (SkipFinalGather) each rank
// returns at its own clock and the barrier is settled after the run: every
// rank is released at the latest rank's clock, idle for the difference.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run, with probe handed to the engine as mpi.Options.Probe.
func run(cfg Config, probe *mpi.KernelCounters) (*Result, error) {
	c, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: make([]mpi.Stats, c.Procs)}
	for ph := range res.PhaseTimes {
		res.PhaseTimes[ph] = make([]float64, c.Procs)
	}
	if c.ResumeFrom != nil {
		if err := validateResume(c, c.ResumeFrom); err != nil {
			return nil, err
		}
	}
	if c.Trace != nil {
		c.Trace.Start(c.Procs, c.Iterations)
		if snap := c.ResumeFrom; snap != nil {
			// Reload the rows recorded before the cut. Restore checks
			// them, so it runs before any rank state is built.
			if err := c.Trace.Restore(snap.Iter, snap.TraceSamples, snap.TraceMigrations, snap.TraceEdgeCuts); err != nil {
				return nil, err
			}
		}
	}
	ranks, err := buildRanks(c)
	if err != nil {
		return nil, err
	}
	var col *snapCollector
	if c.CheckpointEvery > 0 {
		col = newSnapCollector(c)
	}

	// A time-varying machine (fault injection) evolves per iteration: each
	// rank advances its epoch at the iteration boundary so the runtime
	// re-prices overheads and arrivals, and the rank's effective speed is
	// refreshed. tv stays nil for static machines, costing one branch per
	// iteration.
	tv, _ := c.Network.(netmodel.TimeVarying)

	opts := mpi.Options{Procs: c.Procs, Cost: c.Network, Kernel: c.Kernel, Workers: c.KernelWorkers, Stop: c.Stop, Probe: probe}
	// Without balancing or the final gather, a rank that holds no node never
	// blocks. Declared only if there is one, as the closure allocates.
	for i := 0; c.Balancer == nil && c.SkipFinalGather && i < len(ranks); i++ {
		if ranks[i].nodeState == nil {
			opts.NeverBlocks = func(r int) bool { return ranks[r].nodeState == nil }
			break
		}
	}
	runErr := mpi.Run(opts, func(comm *mpi.Comm) error {
		st := &ranks[comm.Rank()]
		st.comm = comm
		var err error
		migrated := 0
		firstIter := 1
		// No initial barrier. Fresh, every clock is 0 and buildRanks built
		// the state before launch, so it would synchronize nothing; resumed,
		// it would fast-forward every restored clock to the max.
		if snap := c.ResumeFrom; snap != nil {
			// Reload this rank's clock and counters before it communicates.
			rs := snap.Ranks[comm.Rank()]
			if err := comm.Restore(rs.Clock, rs.Stats); err != nil {
				return err
			}
			st.start = rs.Start
			migrated = rs.Migrations
			firstIter = snap.Iter + 1
		} else {
			st.start = comm.Wtime()
			// buildRanks built the state; the rank is charged for it here.
			t0 := comm.Wtime()
			comm.Charge(float64(st.initEntries()) * initPerEntry)
			st.phase[PhaseInit] += comm.Wtime() - t0
		}
		// Trace bookkeeping: phase and message-counter snapshots at the
		// previous iteration boundary, so each sample carries deltas. On
		// resume the restored phase vector and counters are exactly the
		// boundary values the uninterrupted run would carry here.
		var prevPhase [NumPhases]float64
		var prevStats mpi.Stats
		if c.Trace != nil {
			prevPhase = st.phase
			prevStats = comm.Stats()
			if st.me == 0 {
				st.cut = partitionCut(c.Graph, st.owner)
			}
		}
		for iter := firstIter; iter <= c.Iterations; iter++ {
			if err := comm.Stopped(); err != nil {
				return err
			}
			if tv != nil {
				comm.SetEpoch(iter)
				st.speed = tv.SpeedAt(iter, st.me)
			}
			computeBefore := st.phase[PhaseCompute]
			for sub := 0; sub < c.SubPhases; sub++ {
				if err := st.computeAndCommunicate(iter, sub); err != nil {
					return err
				}
			}
			st.workTime = st.phase[PhaseCompute] - computeBefore
			if c.Balancer != nil && iter%c.BalanceEvery == 0 && iter < c.Iterations {
				n, err := st.loadBalance(iter)
				if err != nil {
					return err
				}
				migrated += n
			}
			if c.CheckInvariants {
				if err := st.checkInvariants(); err != nil {
					return err
				}
			}
			if c.Trace != nil {
				stats := comm.Stats()
				// On a time-varying machine the sample also carries the
				// processor's effective speed this iteration; 0 (omitted
				// from encodings) on static machines.
				var speedFactor float64
				if tv != nil {
					speedFactor = st.speed
				}
				c.Trace.RecordSample(trace.Sample{
					Iter:        iter,
					Proc:        st.me,
					ComputeS:    st.phase[PhaseCompute] - prevPhase[PhaseCompute],
					OverheadS:   (st.phase[PhaseComputeOverhead] - prevPhase[PhaseComputeOverhead]) + (st.phase[PhaseCommOverhead] - prevPhase[PhaseCommOverhead]),
					CommS:       st.phase[PhaseCommunicate] - prevPhase[PhaseCommunicate],
					IdleS:       stats.IdleSeconds - prevStats.IdleSeconds,
					BalanceS:    st.phase[PhaseLoadBalance] - prevPhase[PhaseLoadBalance],
					MsgsSent:    stats.MessagesSent - prevStats.MessagesSent,
					MsgsRecv:    stats.MessagesReceived - prevStats.MessagesReceived,
					BytesSent:   stats.BytesSent - prevStats.BytesSent,
					BytesRecv:   stats.BytesReceived - prevStats.BytesReceived,
					SpeedFactor: speedFactor,
					WallS:       comm.Wtime(),
				})
				prevPhase = st.phase
				prevStats = stats
				if st.me == 0 {
					// The owner map is rank-local state, synchronized by the
					// migration barriers, so rank 0's running cut of it is
					// current here.
					c.Trace.RecordEdgeCut(iter, st.cut)
				}
			}
			if col != nil && iter%c.CheckpointEvery == 0 && iter < c.Iterations {
				if err := col.contribute(st, iter, st.start); err != nil {
					return err
				}
			}
		}
		// The last barrier is crossed here only when a gather follows it,
		// whose messages must leave at one common clock; otherwise the rank
		// returns and Run settles the barrier after the ranks have.
		var final []NodeData
		if !c.SkipFinalGather {
			if err := comm.Barrier(); err != nil {
				return err
			}
		}
		st.end = comm.Wtime()
		if !c.SkipFinalGather {
			final, err = c.Node.gather(st)
			if err != nil {
				return err
			}
		}
		// No lock: each rank writes only its own index and rank 0 alone
		// the run-wide fields, and mpi.Run returns after every rank has.
		for ph := 0; ph < NumPhases; ph++ {
			res.PhaseTimes[ph][st.me] = st.phase[ph]
		}
		res.Stats[st.me] = comm.Stats()
		if st.me == 0 {
			// The migration barriers keep every rank's owner map the same,
			// so rank 0's is the run's.
			res.FinalPartition = slices.Clone(st.owner)
			res.FinalData = final
			res.Migrations = migrated
		}
		return nil
	})
	if runErr == nil {
		// The last barrier: every rank leaves at the latest end clock, idle
		// for the difference, as Comm.Barrier releases it.
		out := 0.0
		for i := range ranks {
			out = max(out, ranks[i].end)
		}
		for i := range ranks {
			if end := ranks[i].end; out > end {
				res.Stats[i].IdleSeconds += out - end
			}
			res.Elapsed = max(res.Elapsed, out-ranks[i].start)
		}
	}
	putRanks(ranks)
	if runErr != nil {
		return nil, runErr
	}
	if c.Trace != nil {
		c.Trace.Finish()
	}
	return res, nil
}

// partitionCut is the canonical weighted edge cut every other report in
// the system uses; a traced run counts it once at its start and keeps it
// current through migrateRound's deltas. owner always has one entry per
// vertex here, so the length error is impossible.
func partitionCut(g *graph.Graph, owner []int) int {
	cut, _ := g.EdgeCut(owner)
	return cut
}

// RunSequential executes the same iterative computation without the
// platform: a reference single-address-space Jacobi-style loop used by
// integration tests to verify that distributed execution (with any
// partition, with or without task migration) computes exactly the same
// node data. It reads Graph, Procs (checked, not used), InitData, Node,
// Iterations and SubPhases, and ignores the partition, the layout, the
// network, the balancer and the Host fields.
func RunSequential(cfg Config) ([]NodeData, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.SubPhases <= 0 {
		cfg.SubPhases = 1
	}
	return cfg.Node.sequential(&cfg)
}

func (f nodeFunc[T]) sequential(c *Config) ([]NodeData, error) {
	n, nillable := c.Graph.NumVertices(), nillable[T]()
	data := make([]T, n)
	next := make([]T, n)
	for v := range data {
		d, err := typed[T](c.InitData(graph.NodeID(v)), graph.NodeID(v), "InitData returned")
		if err != nil {
			return nil, err
		}
		data[v] = d
	}
	// The reference loop recycles the neighbor list the way the platform
	// does: the NodeFunc retention contract applies identically here.
	var scratch []Neighbor[T]
	for iter := 1; iter <= c.Iterations; iter++ {
		for sub := 0; sub < c.SubPhases; sub++ {
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if cap(scratch) < len(c.Graph.Adj[v]) {
					scratch = make([]Neighbor[T], len(c.Graph.Adj[v]))
				}
				nbrs := scratch[:len(c.Graph.Adj[v])]
				for i, u := range c.Graph.Adj[v] {
					nbrs[i] = Neighbor[T]{ID: u, Data: data[u]}
				}
				out, cost := f(id, iter, sub, data[v], nbrs)
				if nillable && isNil(out) {
					return nil, fmt.Errorf("platform: node function returned nil for node %d", v)
				}
				if cost < 0 {
					return nil, fmt.Errorf("platform: node function returned negative cost for node %d", v)
				}
				next[v] = out
			}
			data, next = next, data
		}
	}
	out := make([]NodeData, n)
	for v, d := range data {
		out[v] = d
	}
	return out, nil
}
