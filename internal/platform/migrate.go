package platform

import (
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/trace"
)

// Load balancing & task migration phase (Section 4.3 and Appendix C).
//
// Every BalanceEvery iterations the platform:
//
//  1. builds the weighted processor network graph at rank 0 (node weight =
//     compute time since the last balancing, edge weight = communication
//     buffer lengths),
//  2. asks the pluggable Balancer for busy/idle pairs,
//  3. has each busy processor choose the migrating node that keeps the
//     edge-cut to a minimum (Fig. 9),
//  4. executes the migrations in parallel rounds with destination
//     reservation: a processor receiving two tasks handles them in
//     successive rounds (Fig. 10, Table 1's compatibility matrix).

const (
	tagMigrate = 500
)

// loadBalance runs one balancing invocation (at the end of iteration
// iter) and returns the number of executed migrations. With
// Config.BalanceRounds = 1 this is the thesis' protocol: one task per
// busy/idle pair. Larger values implement the Section 7 extension ("a
// more rigorous algorithm ... would specify the number of tasks that
// should be migrated"): after each migration round rank 0 re-estimates
// per-processor times (average node cost heuristic) and re-plans, so a
// heavily overloaded processor can shed several tasks in one invocation.
func (s *rankState) loadBalance(iter int) (int, error) {
	t0 := s.comm.Wtime()
	defer func() {
		s.phase[PhaseLoadBalance] += s.comm.Wtime() - t0
	}()

	times, err := s.comm.GatherFloat64(0, s.workTime)
	if err != nil {
		return 0, err
	}
	if _, wantHist := s.cfg.Balancer.(HistoryBalancer); wantHist && s.me == 0 {
		s.recordLoadSample(iter, times)
	}
	rounds := s.cfg.BalanceRounds
	if rounds < 1 {
		rounds = 1
	}
	total := 0
	for round := 0; round < rounds; round++ {
		n, err := s.balanceRound(iter, &times)
		if err != nil {
			return total, err
		}
		total += n
		if n == 0 {
			break
		}
	}
	s.migrations += total
	return total, nil
}

// historyWindow bounds rank 0's balancing-history ring: enough samples
// for an exponentially-weighted forecast to converge, small enough that
// snapshots stay compact.
const historyWindow = 16

// recordLoadSample appends one LoadSample to rank 0's bounded history
// window. Everything recorded is state rank 0 already holds at the
// balancing collective — the gathered compute times plus the pure
// (epoch, rank) speed queries of the interconnect model — so recording
// charges no virtual time and sends no messages: the timeline is
// identical whether or not the balancer asks for history.
func (s *rankState) recordLoadSample(iter int, times []float64) {
	speeds := make([]float64, s.cfg.Procs)
	if tv, ok := s.cfg.Network.(netmodel.TimeVarying); ok {
		for r := range speeds {
			speeds[r] = tv.SpeedAt(iter, r)
		}
	} else {
		for r := range speeds {
			speeds[r] = s.cfg.Network.Speed(r)
		}
	}
	sum, max := 0.0, 0.0
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	imb := 0.0
	if sum > 0 {
		imb = max / (sum / float64(len(times)))
	}
	s.balHist = append(s.balHist, LoadSample{
		Iter:      iter,
		Times:     append([]float64(nil), times...),
		Speeds:    speeds,
		Imbalance: imb,
	})
	if n := len(s.balHist); n > historyWindow {
		s.balHist = append(s.balHist[:0], s.balHist[n-historyWindow:]...)
	}
}

// balanceRound runs one plan+migrate round. times is rank 0's (estimated)
// per-processor time vector; it is updated in place after migrations so a
// following round plans against the post-migration estimate.
func (s *rankState) balanceRound(iter int, times *[]float64) (int, error) {
	// One gather carries both the communication-buffer-size vector (the
	// processor graph's edge weights) and the owned-node count used by the
	// estimated-time update. sendRow expands the peer list into a dense
	// vector — the balancer's processor graph is dense.
	row := s.sendRow()
	gathered, err := s.comm.GatherInts(0, row)
	if err != nil {
		return 0, err
	}
	// Rank 0 plans; the plan is broadcast as a flattened [busy, idle, ...]
	// vector, mirroring the thesis' broadcast of task_migration_pairs.
	var flat []int
	if s.me == 0 {
		comm := make([][]int, s.cfg.Procs)
		for i := range comm {
			comm[i] = make([]int, s.cfg.Procs)
			for j := range comm[i] {
				if i != j {
					comm[i][j] = gathered[i][j] + gathered[j][i]
				}
			}
		}
		pg := ProcGraph{Times: append([]float64(nil), (*times)...), Comm: comm}
		var pairs []Pair
		if hb, ok := s.cfg.Balancer.(HistoryBalancer); ok {
			pairs = hb.PlanWithHistory(pg, s.balHist)
		} else {
			pairs = s.cfg.Balancer.Plan(pg)
		}
		if err := validatePlan(pairs, s.cfg.Procs); err != nil {
			// A misbehaving third-party balancer must not corrupt the
			// platform; broadcast an empty plan and surface the error.
			if _, bErr := s.comm.BcastInts(0, []int{}); bErr != nil {
				return 0, bErr
			}
			return 0, fmt.Errorf("platform: balancer %q produced invalid plan: %w", s.cfg.Balancer.Name(), err)
		}
		for _, p := range pairs {
			flat = append(flat, p.Busy, p.Idle)
		}
		if flat == nil {
			flat = []int{}
		}
	}
	flat, err = s.comm.BcastInts(0, flat)
	if err != nil {
		return 0, err
	}
	pairs := make([]Pair, len(flat)/2)
	for i := range pairs {
		pairs[i] = Pair{Busy: flat[2*i], Idle: flat[2*i+1]}
	}
	if len(pairs) == 0 {
		return 0, nil
	}

	// Each busy processor chooses its migrating node and broadcasts it
	// together with the node's observed per-iteration cost (nanoseconds);
	// -1 means the pair has no feasible candidate and is dropped.
	migs := make([]migration, 0, len(pairs))
	for _, p := range pairs {
		var node graph.NodeID = -1
		var costNanos int64
		if s.me == p.Busy {
			node, costNanos = s.chooseMigratingNode(p.Idle)
		}
		v, err := s.comm.BcastInts(p.Busy, []int{int(node), int(costNanos)})
		if err != nil {
			return 0, err
		}
		node = graph.NodeID(v[0])
		if node >= 0 {
			migs = append(migs, migration{node: node, from: p.Busy, to: p.Idle, cost: float64(v[1]) * 1e-9})
		}
	}
	if len(migs) == 0 {
		return 0, nil
	}

	// Migration guard: rank 0 keeps a migration only when (a) the load it
	// moves fits within roughly half of the busy/idle gap, so a hot node
	// never ping-pongs between two processors, and (b) the move is worth
	// the edge-cut degradation it causes — at least a few percent of the
	// mean processor time. The C original had no such guard; on real
	// hardware timing noise limits the churn that deterministic clocks
	// expose.
	if !s.cfg.DisableMigrationGuard {
		keep := make([]int, len(migs))
		if s.me == 0 {
			mean := 0.0
			for _, t := range *times {
				mean += t
			}
			mean /= float64(len(*times))
			// avgNode is the mean per-node compute cost across the whole
			// machine — the scale-free unit for judging a migration.
			avgNode := mean * float64(s.cfg.Procs) / float64(s.cfg.Graph.NumVertices())
			for i, m := range migs {
				moved := m.cost
				gap := (*times)[m.from] - (*times)[m.to]
				// Keep when the moved load fits in the busy/idle gap
				// without flipping the pair (60%) and the node is at
				// least half as costly as an average node — migrating
				// cheaper nodes cannot repay the edge-cut degradation.
				if moved > 0 && moved <= 0.6*gap && moved >= 0.5*avgNode {
					keep[i] = 1
				}
			}
		}
		keep, err = s.comm.BcastInts(0, keep)
		if err != nil {
			return 0, err
		}
		kept := migs[:0]
		for i, m := range migs {
			if keep[i] == 1 {
				kept = append(kept, m)
			}
		}
		migs = kept
	}
	if len(migs) == 0 {
		return 0, nil
	}

	// Execute in rounds: within a round every destination receives at most
	// one task (the thesis' to_proc_reserved loop); leftovers run in the
	// next round.
	executed := 0
	remaining := migs
	for len(remaining) > 0 {
		reserved := make(map[int]bool)
		var round, next []migration
		for _, m := range remaining {
			if reserved[m.to] {
				next = append(next, m)
				continue
			}
			reserved[m.to] = true
			round = append(round, m)
		}
		for _, m := range round {
			if err := s.executeMigration(m); err != nil {
				return executed, err
			}
			if s.cfg.Trace != nil && s.me == 0 {
				s.cfg.Trace.RecordMigration(trace.Migration{
					Iter: iter, Node: int(m.node), From: m.from, To: m.to, BenefitS: m.cost,
				})
			}
		}
		// Commit ownership changes and rebuild bookkeeping everywhere. The
		// first commit of a run is where a rank stops sharing the owner map.
		s.ownOwner()
		for _, m := range round {
			s.owner[m.node] = m.to
		}
		s.reclassifyAll()
		if err := s.comm.Barrier(); err != nil {
			return executed, err
		}
		executed += len(round)
		remaining = next
	}
	// Rank 0 updates its time estimate: a migrated task carries its
	// observed per-iteration cost projected over the balancing window,
	// falling back to the source's average per-node cost when the busy
	// processor has not yet observed the node.
	if s.me == 0 {
		owned := make([]int, s.cfg.Procs)
		for p := range owned {
			owned[p] = gathered[p][s.cfg.Procs]
		}
		for _, m := range migs {
			if owned[m.from] <= 0 {
				continue
			}
			moved := m.cost
			if moved <= 0 {
				moved = (*times)[m.from] / float64(owned[m.from])
			}
			if moved > (*times)[m.from] {
				moved = (*times)[m.from]
			}
			(*times)[m.from] -= moved
			(*times)[m.to] += moved
			owned[m.from]--
			owned[m.to]++
		}
	}
	return executed, nil
}

// migration is one planned task movement. cost is the node's observed
// per-iteration compute cost, used by rank 0's estimated-time update.
type migration struct {
	node     graph.NodeID
	from, to int
	cost     float64
}

// validatePlan enforces the structural rules of Table 1: every processor
// is busy in at most one pair, and a busy processor is never the idle side
// of another pair ("when a processor for a particular migration is a
// 'busy' processor, it cannot be either 'idle' or holding shadow for the
// migrating node of any other migration").
func validatePlan(pairs []Pair, procs int) error {
	busy := make(map[int]bool)
	idle := make(map[int]bool)
	for _, p := range pairs {
		if p.Busy < 0 || p.Busy >= procs || p.Idle < 0 || p.Idle >= procs {
			return fmt.Errorf("pair %v out of range [0,%d)", p, procs)
		}
		if p.Busy == p.Idle {
			return fmt.Errorf("pair %v migrates to itself", p)
		}
		if busy[p.Busy] {
			return fmt.Errorf("processor %d busy in two pairs", p.Busy)
		}
		busy[p.Busy] = true
		idle[p.Idle] = true
	}
	for b := range busy {
		if idle[b] {
			return fmt.Errorf("processor %d is both busy and idle", b)
		}
	}
	return nil
}

// chooseMigratingNode picks the task to shed among this (busy) rank's
// peripheral nodes that are shadows for the idle processor. The thesis
// scores candidates purely by edge-cut growth — node_edge_cut =
// (#neighbors remaining on busy) - (#neighbors already on idle), minimum
// wins (Fig. 9). On noise-free virtual clocks that load-blind choice
// migrates cheap nodes as readily as hot ones and the balancer churns, so
// this implementation applies the Section 7 refinement: the observed
// per-iteration node cost is the primary criterion (hottest first) and the
// thesis' edge-cut score breaks ties, then the node ID for determinism.
// Returns (-1, 0) when no candidate exists or this is the rank's last
// node; otherwise the chosen node and its cost in nanoseconds.
func (s *rankState) chooseMigratingNode(idle int) (graph.NodeID, int64) {
	if s.numOwned() <= 1 {
		return -1, 0
	}
	best := graph.NodeID(-1)
	bestScore := 0
	bestCost := 0.0
	for _, node := range s.peripheral {
		if !slices.Contains(node.shadowFor, int32(idle)) {
			continue
		}
		score := 0
		for _, nb := range node.nbr {
			switch s.owner[nb.id] {
			case s.me:
				score++
			case idle:
				score--
			}
		}
		better := false
		switch {
		case best == -1:
			better = true
		case node.lastCost > bestCost:
			better = true
		case node.lastCost == bestCost && score < bestScore:
			better = true
		case node.lastCost == bestCost && score == bestScore && node.id < best:
			better = true
		}
		if better {
			best = node.id
			bestScore = score
			bestCost = node.lastCost
		}
	}
	if best == -1 {
		return -1, 0
	}
	return best, int64(bestCost * 1e9)
}

// executeMigration performs one task migration. Three roles participate
// (Section 4.3): the busy processor sends the migrating node's neighbors'
// data and demotes the node to a shadow; the idle processor absorbs the
// node and the received shadow data; every other processor only adjusts
// bookkeeping (done collectively in reclassifyAll by the caller).
func (s *rankState) executeMigration(m migration) error {
	switch s.me {
	case m.from:
		return s.migrateOut(m)
	case m.to:
		return s.migrateIn(m)
	default:
		return nil
	}
}

// migrateOut is the busy processor's side.
func (s *rankState) migrateOut(m migration) error {
	e := s.table.Lookup(m.node)
	if e == nil || e.own == nil {
		return fmt.Errorf("platform: rank %d asked to migrate node %d it does not own", s.me, m.node)
	}
	node := e.own
	if !node.peripheral {
		return fmt.Errorf("platform: rank %d: migrating node %d is not peripheral", s.me, m.node)
	}
	// Send the data of the migrating node's neighbors: "this is needed
	// since the neighbors of the migrating node now become shadow nodes
	// for the 'idle' processor". The node's own current data rides along
	// so the destination does not depend on having held the shadow.
	buf := make([]shadowUpdate, 0, len(node.nbr)+1)
	buf = append(buf, shadowUpdate{id: m.node, data: node.self.data})
	for _, nb := range node.nbr {
		buf = append(buf, shadowUpdate{id: nb.id, data: nb.data})
	}
	if err := s.comm.Isend(m.to, tagMigrate, buf, updateBytes(buf)); err != nil {
		return err
	}
	// Remove the node from the own-node lists; its data entry stays in the
	// hash table and data list because "the migrating node now becomes a
	// shadow node for the 'busy' processor".
	e.own = nil
	s.peripheral = slices.DeleteFunc(s.peripheral, func(n *ownNode) bool { return n == node })
	return nil
}

// migrateIn is the idle processor's side.
func (s *rankState) migrateIn(m migration) error {
	payload, err := s.comm.Recv(m.from, tagMigrate)
	if err != nil {
		return err
	}
	buf, ok := payload.([]shadowUpdate)
	if !ok {
		return fmt.Errorf("platform: rank %d: unexpected migration payload %T", s.me, payload)
	}
	if len(buf) == 0 || buf[0].id != m.node {
		return fmt.Errorf("platform: rank %d: migration payload does not start with node %d", s.me, m.node)
	}
	for _, u := range buf {
		if s.owner[u.id] == s.me && u.id != m.node {
			// Never clobber data we own with the sender's shadow copy.
			continue
		}
		if e := s.table.Lookup(u.id); e != nil {
			e.data = u.data
			e.mostRecent = u.data
		} else {
			if err := s.table.Insert(&entry{id: u.id, data: u.data, mostRecent: u.data}); err != nil {
				return err
			}
		}
	}
	// "The node information of the migrating node is added in the
	// peripheral node list" — reclassifyAll will demote it to internal if
	// it has no remote neighbors after the ownership flip.
	n := len(s.cfg.Graph.Adj[m.node])
	node := &ownNode{id: m.node, shadowFor: make([]int32, 0, n)}
	// Every neighbor's entry is in the table now, received or already held.
	node.nbr = make([]*entry, n)
	s.resolve(node)
	s.peripheral = append(s.peripheral, node)
	return nil
}
