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
//     buffer lengths) from what every rank gathers to it: its owned-node
//     count and its peers as (processor, send count) pairs, charged as the
//     dense row of P+1 ints,
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
	// One gather carries the owned-node count used by the estimated-time
	// update and the communication-buffer lengths (the processor graph's
	// edge weights) as [numOwned, proc₁, send₁, proc₂, send₂, …], one pair
	// per peer. It is charged as the dense row of P+1 ints the thesis'
	// rank sends.
	row := []int{0} // a rank that holds no node owns none and has no peer
	if s.nodeState != nil {
		row = make([]int, 1, 1+2*len(s.peers))
		row[0] = s.numOwned()
		for _, pe := range s.peers {
			row = append(row, pe.proc, pe.send)
		}
	}
	gathered, err := s.comm.Gather(0, row, 8*(s.cfg.Procs+1))
	if err != nil {
		return 0, err
	}
	// Rank 0 plans; the plan is broadcast as a flattened [busy, idle, ...]
	// vector, mirroring the thesis' broadcast of task_migration_pairs.
	var flat []int
	if s.me == 0 {
		// The balancer takes a dense graph: its rows are cut from one array.
		procs := s.cfg.Procs
		cells := make([]int, procs*procs)
		comm := make([][]int, procs)
		for i := range comm {
			comm[i] = cells[i*procs : (i+1)*procs : (i+1)*procs]
		}
		for i, v := range gathered {
			peers := v.([]int)
			for k := 1; k < len(peers); k += 2 {
				j, w := peers[k], peers[k+1]
				comm[i][j] += w
				comm[j][i] += w
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
		flat = make([]int, 0, 2*len(pairs))
		for _, p := range pairs {
			flat = append(flat, p.Busy, p.Idle)
		}
	}
	flat, err = s.comm.BcastInts(0, flat)
	if err != nil {
		return 0, err
	}
	if len(flat) == 0 {
		return 0, nil
	}

	// Each busy processor chooses its migrating node and broadcasts it
	// together with the node's observed per-iteration cost (nanoseconds);
	// -1 means the pair has no feasible candidate and is dropped.
	migs := make([]migration, 0, len(flat)/2)
	for k := 0; k < len(flat); k += 2 {
		busy, idle := flat[k], flat[k+1]
		var cand []int
		if s.me == busy {
			node, costNanos := s.chooseMigratingNode(idle)
			cand = []int{int(node), int(costNanos)}
		}
		v, err := s.comm.Bcast(busy, cand, 16)
		if err != nil {
			return 0, err
		}
		if cand = v.([]int); cand[0] >= 0 {
			migs = append(migs, migration{node: graph.NodeID(cand[0]), from: busy, to: idle, cost: float64(cand[1]) * 1e-9})
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
		var keep []bool
		if s.me == 0 {
			keep = make([]bool, len(migs))
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
				keep[i] = moved > 0 && moved <= 0.6*gap && moved >= 0.5*avgNode
			}
		}
		v, err := s.comm.Bcast(0, keep, 8*len(migs))
		if err != nil {
			return 0, err
		}
		keep = v.([]bool)
		kept := migs[:0]
		for i, m := range migs {
			if keep[i] {
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
		if err := s.migrateRound(iter, round); err != nil {
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
		for p, v := range gathered {
			owned[p] = v.([]int)[0]
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

// migrateRound executes one round of migrations, no two to the same
// destination, and commits them on every rank.
func (s *rankState) migrateRound(iter int, round []migration) error {
	for _, m := range round {
		if err := s.executeMigration(m); err != nil {
			return err
		}
		if s.cfg.Trace != nil && s.me == 0 {
			s.cfg.Trace.RecordMigration(trace.Migration{
				Iter: iter, Node: int(m.node), From: m.from, To: m.to, BenefitS: m.cost,
			})
		}
	}
	if s.commitRound(round) {
		s.localUpdate(round)
	}
	return s.comm.Barrier()
}

// commitRound writes the round's moves into the owner map; the first
// commit of a run is where a rank stops sharing it. It reports whether the
// rank must update its bookkeeping: one that neither sent nor took a node
// and owns no neighbour of a moved one (a stale shadow is not enough)
// keeps the same classification, peers and plans.
func (s *rankState) commitRound(round []migration) bool {
	s.ownOwner()
	touched := false
	for _, m := range round {
		if s.cfg.Trace != nil && s.me == 0 {
			s.cut += s.cutDelta(m)
		}
		s.owner[m.node] = m.to
		touched = touched || m.from == s.me || m.to == s.me ||
			slices.ContainsFunc(s.cfg.Graph.Adj[m.node], func(u graph.NodeID) bool { return s.owner[u] == s.me })
	}
	return touched
}

// cutDelta is how much m changes the weighted edge cut of the owner map,
// read before m is committed: an edge to a node on m.from becomes cut, an
// edge to a node on m.to stops being cut, and any other edge stays cut.
func (s *rankState) cutDelta(m migration) int {
	g, d := s.cfg.Graph, 0
	for i, u := range g.Adj[m.node] {
		switch s.owner[u] {
		case m.from:
			d += g.EdgeWeightAt(m.node, i)
		case m.to:
			d -= g.EdgeWeightAt(m.node, i)
		}
	}
	return d
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
		for _, u := range s.cfg.Graph.Adj[node.id] {
			switch s.owner[u] {
			case s.me:
				score++
			case idle:
				score--
			}
		}
		cost := s.vals.lastCost(node.self)
		better := false
		switch {
		case best == -1:
			better = true
		case cost > bestCost:
			better = true
		case cost == bestCost && score < bestScore:
			better = true
		case cost == bestCost && score == bestScore && node.id < best:
			better = true
		}
		if better {
			best = node.id
			bestScore = score
			bestCost = cost
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
// bookkeeping, which every rank the round touched does after the commit
// (localUpdate).
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
	if s.owner[m.node] != s.me {
		return fmt.Errorf("platform: rank %d asked to migrate node %d it does not own", s.me, m.node)
	}
	i, ok := nodeIndex(s.peripheral, m.node)
	if !ok {
		return fmt.Errorf("platform: rank %d: migrating node %d is not peripheral", s.me, m.node)
	}
	if err := s.vals.sendMigrant(s, m, s.peripheral[i]); err != nil {
		return err
	}
	// Remove the node from the own-node lists, and from the send counts of
	// the peers it was a shadow for; its data entry stays in the hash table
	// and data list because "the migrating node now becomes a shadow node
	// for the 'busy' processor".
	s.ownLayout()
	for _, p := range s.peripheral[i].shadowFor {
		s.peers[s.peerIndex(int(p))].send--
	}
	s.peripheral = slices.Delete(s.peripheral, i, i+1)
	return nil
}

// migrateIn is the idle processor's side.
func (s *rankState) migrateIn(m migration) error {
	payload, err := s.comm.Recv(m.from, tagMigrate)
	if err != nil {
		return err
	}
	if s.nodeState == nil { // the rank's first node, in a layout of its own
		s.nodeState = &nodeState{rankLayout: new(rankLayout), vals: s.cfg.Node.empty()}
	}
	s.ownLayout()
	if err := s.vals.absorb(s, m, payload); err != nil {
		return err
	}
	// "The node information of the migrating node is added in the
	// peripheral node list", in id order and with no shadowFor set yet:
	// localUpdate places it after the commit.
	n := len(s.cfg.Graph.Adj[m.node])
	ints := make([]int32, 3*n)
	node := &ownNode{id: m.node, shadowFor: ints[:0:n], out: ints[n : n : 2*n], nbr: ints[2*n:]}
	// Every neighbor's entry is in the table now, received or already held.
	s.resolve(node)
	i, _ := nodeIndex(s.peripheral, m.node)
	s.peripheral = slices.Insert(s.peripheral, i, node)
	return nil
}

// sendMigrant sends the data of the migrating node's neighbors: "this is
// needed since the neighbors of the migrating node now become shadow nodes
// for the 'idle' processor". The node's own current data rides along so
// the destination does not depend on having held the shadow.
func (v *values[T]) sendMigrant(s *rankState, m migration, node *ownNode) error {
	buf := make([]shadowUpdate[T], 0, len(node.nbr)+1)
	buf = append(buf, shadowUpdate[T]{id: m.node, data: v.ents[node.self].data})
	for j, u := range s.cfg.Graph.Adj[m.node] {
		buf = append(buf, shadowUpdate[T]{id: u, data: v.ents[node.nbr[j]].data})
	}
	return s.comm.Isend(m.to, tagMigrate, buf, updateBytes(buf))
}

// absorb stores what sendMigrant sent in the idle processor's table and
// entries, the migrating node's with no compute cost observed yet.
func (v *values[T]) absorb(s *rankState, m migration, payload any) error {
	buf, ok := payload.([]shadowUpdate[T])
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
		if k := s.table.Lookup(u.id); k >= 0 {
			v.ents[k].data = u.data
			v.ents[k].mostRecent = u.data
		} else {
			if _, err := s.table.Insert(u.id); err != nil {
				return err
			}
			v.ents = append(v.ents, entry[T]{id: u.id, data: u.data, mostRecent: u.data})
		}
	}
	v.ents[s.table.Lookup(m.node)].lastCost = 0
	return nil
}
