package platform

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/trace"
)

// Checkpoint/restore at fault-epoch boundaries.
//
// An iteration boundary is message-quiescent: every sub-phase exchange is
// tagged per round with exact receive counts, and a balancing invocation's
// collectives complete inside the iteration, so when a rank finishes
// iteration k none of its messages for iterations <= k are still in
// flight. That makes the boundary a consistent global cut — each rank can
// capture its own state as it passes, with no extra barrier and no
// virtual-time perturbation, and a run restored from the combined snapshot
// replays iterations k+1..N on exactly the timeline the uninterrupted run
// would have produced.

// NodeSnap is one hash-table entry in a rank's snapshot: an owned node or
// a shadow this rank holds for its peripheral computation. At an iteration
// boundary data == most_recent_data for every live entry, so one value
// suffices.
type NodeSnap struct {
	ID    graph.NodeID
	Owned bool
	// LastCost is the node's observed compute cost in the most recent
	// iteration (meaningful only for owned nodes; the migration heuristic
	// reads it).
	LastCost float64
	Data     NodeData
}

// RankSnap is one rank's complete live state at an iteration boundary.
type RankSnap struct {
	Rank int
	// Clock is the rank's virtual clock at the boundary; Start is its
	// clock when the run began (after the initial barrier), kept so the
	// resumed run reports the same end-to-end Elapsed.
	Clock float64
	Start float64
	Stats mpi.Stats
	Phase [NumPhases]float64
	// WorkTime is the compute time of the boundary's iteration — the node
	// weight the next balancing invocation gathers.
	WorkTime   float64
	Migrations int
	// Nodes lists owned entries and held shadows, ascending by ID.
	Nodes []NodeSnap
	// History is rank 0's balancing-history window (see HistoryBalancer);
	// empty on other ranks and for balancers that do not ask for history.
	History []LoadSample
}

// RunSnapshot is the full state of a platform run at the end of iteration
// Iter: every rank's snapshot, the (globally synchronized) owner map, and
// the trace rows recorded so far. internal/checkpoint serializes it;
// Config.ResumeFrom replays it.
type RunSnapshot struct {
	// Iter is the completed iteration the snapshot was cut at (1-based).
	Iter int
	// Procs and Iterations echo the run configuration for validation.
	Procs      int
	Iterations int
	// Owner maps every node to its owning processor at the boundary.
	Owner []int
	// Ranks holds one RankSnap per rank, indexed by rank.
	Ranks []RankSnap
	// HasTrace records whether the run was traced; the Trace* fields
	// below are only meaningful when set.
	HasTrace bool
	// TraceSamples holds the (iteration-major) sample rows for iterations
	// 1..Iter; TraceMigrations and TraceEdgeCuts the rank-0 series.
	TraceSamples    []trace.Sample
	TraceMigrations []trace.Migration
	TraceEdgeCuts   []int
}

// snapCollector assembles one RunSnapshot per checkpoint boundary from
// asynchronous per-rank contributions. The mutex orders contributions, so
// the last contributing rank observes every sibling's state (and every
// trace row for iterations <= the boundary) and hands the completed
// snapshot to the sink. All work is host-side: no virtual time moves.
type snapCollector struct {
	mu      sync.Mutex
	cfg     *Config
	pending map[int]*pendingSnap
}

type pendingSnap struct {
	snap        *RunSnapshot
	contributed int
}

func newSnapCollector(cfg *Config) *snapCollector {
	return &snapCollector{cfg: cfg, pending: make(map[int]*pendingSnap)}
}

// contribute records rank s.me's state at the end of iteration iter. The
// rank that completes the snapshot invokes the checkpoint sink; a sink
// error aborts the run through the normal rank-failure path.
func (col *snapCollector) contribute(s *rankState, iter int, start float64) error {
	rs := captureRankSnap(s, start)

	col.mu.Lock()
	defer col.mu.Unlock()
	p := col.pending[iter]
	if p == nil {
		p = &pendingSnap{snap: &RunSnapshot{
			Iter:       iter,
			Procs:      col.cfg.Procs,
			Iterations: col.cfg.Iterations,
			Owner:      append([]int(nil), s.owner...),
			Ranks:      make([]RankSnap, col.cfg.Procs),
		}}
		col.pending[iter] = p
	}
	p.snap.Ranks[s.me] = rs
	p.contributed++
	if p.contributed < col.cfg.Procs {
		return nil
	}
	delete(col.pending, iter)
	if tr := col.cfg.Trace; tr != nil {
		// Sample slots for iterations <= iter are final: each was written
		// by its owning rank before that rank's contribution, and the
		// collector mutex sequences those writes before this read. The
		// rank-0-only series are likewise complete — rank 0 records them
		// before its own contribution, and balancing for any later
		// iteration needs collectives this last rank has not joined yet.
		p.snap.HasTrace = true
		p.snap.TraceSamples = append([]trace.Sample(nil), tr.Samples()[:iter*col.cfg.Procs]...)
		p.snap.TraceMigrations = append([]trace.Migration(nil), tr.Migrations()...)
		cuts := make([]int, iter)
		for i, d := range tr.Series()[:iter] {
			cuts[i] = d.EdgeCut
		}
		p.snap.TraceEdgeCuts = cuts
	}
	if col.cfg.CheckpointSink != nil {
		if err := col.cfg.CheckpointSink(p.snap); err != nil {
			return fmt.Errorf("platform: checkpoint sink at iteration %d: %w", iter, err)
		}
	}
	return nil
}

// captureRankSnap copies one rank's live state. Data values are shared,
// not copied: they are immutable once returned (see NodeData), so the
// snapshot stays valid while the run races ahead. The history window is
// copied because recordLoadSample trims it in place; the Times and Speeds
// inside are shared, since nothing writes them after they are recorded.
func captureRankSnap(s *rankState, start float64) RankSnap {
	rs := RankSnap{
		Rank:       s.me,
		Clock:      s.comm.Wtime(),
		Start:      start,
		Stats:      s.comm.Stats(),
		Phase:      s.phase,
		WorkTime:   s.workTime,
		Migrations: s.migrations,
	}
	// Live entries are the owned nodes plus the shadows the receive plans
	// refresh (the distinct non-owned neighbors of peripheral nodes);
	// anything else in the hash table is a stale shadow that is always
	// overwritten before its next read, so it is dropped rather than
	// serialized.
	live := make([]*entry, 0, s.numOwned())
	for _, node := range s.internal {
		live = append(live, node.self)
	}
	for _, node := range s.peripheral {
		live = append(live, node.self)
	}
	for _, pe := range s.peers {
		live = append(live, pe.in...)
	}
	rs.History = slices.Clone(s.balHist)
	slices.SortFunc(live, func(a, b *entry) int { return cmp.Compare(a.id, b.id) })
	rs.Nodes = make([]NodeSnap, len(live))
	for i, e := range live {
		ns := NodeSnap{ID: e.id, Data: e.data}
		if e.own != nil {
			ns.Owned = true
			ns.LastCost = e.own.lastCost
		}
		rs.Nodes[i] = ns
	}
	return rs
}

// validateResume checks a snapshot against the run configuration before
// any rank launches: a snapshot from a different spec must fail loudly
// here, never silently resume the wrong run.
func validateResume(c *Config, snap *RunSnapshot) error {
	if snap.Procs != c.Procs {
		return fmt.Errorf("platform: resume snapshot has %d procs, config has %d", snap.Procs, c.Procs)
	}
	if snap.Iterations != c.Iterations {
		return fmt.Errorf("platform: resume snapshot ran %d iterations, config runs %d", snap.Iterations, c.Iterations)
	}
	if snap.Iter < 1 || snap.Iter >= c.Iterations {
		return fmt.Errorf("platform: resume snapshot cut at iteration %d outside [1,%d)", snap.Iter, c.Iterations)
	}
	n := c.Graph.NumVertices()
	if len(snap.Owner) != n {
		return fmt.Errorf("platform: resume snapshot owner map has %d entries for %d nodes", len(snap.Owner), n)
	}
	for v, p := range snap.Owner {
		if p < 0 || p >= c.Procs {
			return fmt.Errorf("platform: resume snapshot assigns node %d to processor %d outside [0,%d)", v, p, c.Procs)
		}
	}
	if len(snap.Ranks) != c.Procs {
		return fmt.Errorf("platform: resume snapshot has %d rank records for %d procs", len(snap.Ranks), c.Procs)
	}
	ownedTotal := 0
	for r, rs := range snap.Ranks {
		if rs.Rank != r {
			return fmt.Errorf("platform: resume snapshot rank record %d labeled rank %d", r, rs.Rank)
		}
		if rs.Clock < 0 || rs.Start < 0 || rs.Start > rs.Clock {
			return fmt.Errorf("platform: resume snapshot rank %d has inconsistent clocks (start %g, now %g)", r, rs.Start, rs.Clock)
		}
		prevIter := 0
		for _, h := range rs.History {
			if h.Iter <= prevIter || h.Iter > snap.Iter {
				return fmt.Errorf("platform: resume snapshot rank %d history not ascending within (0,%d]", r, snap.Iter)
			}
			prevIter = h.Iter
			if len(h.Times) != c.Procs || len(h.Speeds) != c.Procs {
				return fmt.Errorf("platform: resume snapshot rank %d history sample at iteration %d sized for %d/%d procs, want %d",
					r, h.Iter, len(h.Times), len(h.Speeds), c.Procs)
			}
		}
		prev := graph.NodeID(-1)
		for _, ns := range rs.Nodes {
			if ns.ID <= prev {
				return fmt.Errorf("platform: resume snapshot rank %d node list not strictly ascending at %d", r, ns.ID)
			}
			prev = ns.ID
			if ns.ID < 0 || int(ns.ID) >= n {
				return fmt.Errorf("platform: resume snapshot rank %d holds out-of-range node %d", r, ns.ID)
			}
			if ns.Data == nil {
				return fmt.Errorf("platform: resume snapshot rank %d node %d has nil data", r, ns.ID)
			}
			if ns.Owned != (snap.Owner[ns.ID] == r) {
				return fmt.Errorf("platform: resume snapshot rank %d disagrees with owner map about node %d", r, ns.ID)
			}
			if ns.Owned {
				ownedTotal++
			}
		}
	}
	if ownedTotal != n {
		return fmt.Errorf("platform: resume snapshot covers %d owned nodes of %d", ownedTotal, n)
	}
	if c.Trace != nil {
		if !snap.HasTrace {
			return fmt.Errorf("platform: resume snapshot was captured without tracing; cannot resume a traced run")
		}
		if len(snap.TraceSamples) != snap.Iter*c.Procs {
			return fmt.Errorf("platform: resume snapshot has %d trace rows, want %d", len(snap.TraceSamples), snap.Iter*c.Procs)
		}
		if len(snap.TraceEdgeCuts) != snap.Iter {
			return fmt.Errorf("platform: resume snapshot has %d edge-cut entries, want %d", len(snap.TraceEdgeCuts), snap.Iter)
		}
	}
	return nil
}

// restoreRankState rebuilds one rank's live state from a snapshot. It is
// the resume-side twin of newRankState: no InitData calls, no init-phase
// charges — the restored phase vector already accounts for them.
func restoreRankState(cfg *Config, comm *mpi.Comm, snap *RunSnapshot) (*rankState, error) {
	s := emptyRankState(cfg, comm, snap.Owner)
	rs := snap.Ranks[s.me]
	var err error
	if s.table, err = NewHashTable(len(rs.Nodes) + 1); err != nil {
		return nil, err
	}
	mine := make([]graph.NodeID, 0, len(rs.Nodes))
	entries := make([]entry, len(rs.Nodes))
	for i, ns := range rs.Nodes {
		entries[i] = entry{id: ns.ID, data: ns.Data, mostRecent: ns.Data}
		if err := s.table.Insert(&entries[i]); err != nil {
			return nil, err
		}
		if ns.Owned {
			mine = append(mine, ns.ID)
		}
	}
	// rs.Nodes is ascending, so the per-kind lists come out sorted.
	s.placeAll(mine)
	s.rebuildCounts()
	s.resolveAll()
	for _, node := range s.peripheral {
		if slices.Contains(node.nbr, nil) {
			return nil, fmt.Errorf("platform: resume snapshot rank %d lacks a shadow next to node %d", s.me, node.id)
		}
	}
	s.planExchange()
	for i, ns := range rs.Nodes {
		if ns.Owned {
			entries[i].own.lastCost = ns.LastCost
		}
	}
	s.phase = rs.Phase
	s.workTime = rs.WorkTime
	s.migrations = rs.Migrations
	s.balHist = slices.Clone(rs.History)
	if err := s.checkInvariants(); err != nil {
		return nil, fmt.Errorf("platform: resume snapshot failed invariants: %w", err)
	}
	return s, nil
}
