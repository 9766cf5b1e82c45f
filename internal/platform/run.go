package platform

import (
	"fmt"
	"slices"
	"sync"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/trace"
)

// Run executes the platform's full flow of control (Fig. 6): graph
// partitioner output in, initialization, then the iteration loop of
// computation, communication and periodic load balancing, and finally a
// gather of results. It blocks until every virtual processor finishes and
// returns the aggregated Result.
func Run(cfg Config) (*Result, error) {
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
			// Reload the rows recorded before the cut, single-threaded,
			// before any rank launches.
			if err := c.Trace.Restore(snap.Iter, snap.TraceSamples, snap.TraceMigrations, snap.TraceEdgeCuts); err != nil {
				return nil, err
			}
		}
	}
	var col *snapCollector
	if c.CheckpointEvery > 0 {
		col = newSnapCollector(c)
	}
	// The partition index: which nodes each rank starts with, worked out
	// once here instead of by every rank scanning the whole owner map. A
	// resumed rank reads the same from its RankSnap.
	var own [][]graph.NodeID
	if c.ResumeFrom == nil {
		own = nodesByOwner(c.InitialPartition, c.Procs)
	}
	var mu sync.Mutex
	elapsed := make([]float64, c.Procs)

	// A time-varying machine (fault injection) evolves per iteration: each
	// rank advances its epoch at the iteration boundary so the runtime
	// re-prices overheads and arrivals, and the rank's effective speed is
	// refreshed. tv stays nil for static machines, costing one branch per
	// iteration.
	tv, _ := c.Network.(netmodel.TimeVarying)

	opts := mpi.Options{Procs: c.Procs, Cost: c.Network, Kernel: c.Kernel, Workers: c.KernelWorkers}
	runErr := mpi.Run(opts, func(comm *mpi.Comm) error {
		var start float64
		var st *rankState
		var err error
		migrated := 0
		firstIter := 1
		if snap := c.ResumeFrom; snap != nil {
			// Resuming: no initial barrier — it would fast-forward every
			// restored clock to the max. Comm.Restore reloads this rank's
			// clock and counters before any communication, then the state
			// rebuild is pure host work.
			rs := snap.Ranks[comm.Rank()]
			if err := comm.Restore(rs.Clock, rs.Stats); err != nil {
				return err
			}
			start = rs.Start
			if st, err = restoreRankState(c, comm, snap); err != nil {
				return err
			}
			migrated = rs.Migrations
			firstIter = snap.Iter + 1
		} else {
			if err := comm.Barrier(); err != nil {
				return err
			}
			start = comm.Wtime()
			if st, err = newRankState(c, comm, own[comm.Rank()]); err != nil {
				return err
			}
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
		}
		for iter := firstIter; iter <= c.Iterations; iter++ {
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
					// migration barriers, so rank 0's copy is current here.
					c.Trace.RecordEdgeCut(iter, partitionCut(c.Graph, st.owner))
				}
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
		end := comm.Wtime()

		var final []NodeData
		if !c.SkipFinalGather {
			final, err = st.gatherFinalData()
			if err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		elapsed[st.me] = end - start
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
	if runErr != nil {
		return nil, runErr
	}
	if c.Trace != nil {
		c.Trace.Finish()
	}
	for _, t := range elapsed {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	return res, nil
}

// partitionCut is the live edge-cut the trace subsystem samples at the
// end of every iteration: the canonical weighted cut every other report
// in the system uses. owner always has one entry per vertex here, so the
// length error is impossible.
func partitionCut(g *graph.Graph, owner []int) int {
	cut, _ := g.EdgeCut(owner)
	return cut
}

// RunSequential executes the same iterative computation without the
// platform: a reference single-address-space Jacobi-style loop used by
// integration tests to verify that distributed execution (with any
// partition, with or without task migration) computes exactly the same
// node data.
func RunSequential(cfg Config) ([]NodeData, error) {
	c, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	n := c.Graph.NumVertices()
	data := make([]NodeData, n)
	next := make([]NodeData, n)
	for v := 0; v < n; v++ {
		data[v] = c.InitData(graph.NodeID(v))
		if data[v] == nil {
			return nil, fmt.Errorf("platform: InitData returned nil for node %d", v)
		}
	}
	// The reference loop recycles the neighbor list the way the platform
	// does: the NodeFunc retention contract applies identically here.
	var scratch []Neighbor
	for iter := 1; iter <= c.Iterations; iter++ {
		for sub := 0; sub < c.SubPhases; sub++ {
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if cap(scratch) < len(c.Graph.Adj[v]) {
					scratch = make([]Neighbor, len(c.Graph.Adj[v]))
				}
				nbrs := scratch[:len(c.Graph.Adj[v])]
				for i, u := range c.Graph.Adj[v] {
					nbrs[i] = Neighbor{ID: u, Data: data[u]}
				}
				out, cost := c.Node(id, iter, sub, data[v], nbrs)
				if out == nil {
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
	return data, nil
}
