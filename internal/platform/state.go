package platform

import (
	"cmp"
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// rankState is what every processor keeps in local memory, whether or not
// it holds a node: its identity, the node-to-owner map (the thesis'
// output_arr), its clocks and counters. What is sized by the nodes a rank
// holds is in nodeState.
type rankState struct {
	cfg  *Config
	comm *mpi.Comm
	me   int
	// speed caches the interconnect model's relative execution-time
	// multiplier for this processor (1 on homogeneous machines).
	speed float64

	// owner maps node -> owning processor, kept in sync across ranks. The
	// thesis replicates it on every processor; here every rank starts on the
	// run's one read-only map (Config.InitialPartition or RunSnapshot.Owner,
	// which belong to the caller) and ownerShared says it still is. A rank
	// must call ownOwner before its first write.
	owner       []int
	ownerShared bool

	// nodeState is nil while the rank holds no node, which reads as empty
	// lists. buildRanks gives it to a rank that starts with a node, and
	// migrateIn to a rank that takes its first.
	*nodeState

	// gen is the pools generation the current exchange packs and sends;
	// nextBuffers flips it as every exchange starts.
	gen int

	phase [NumPhases]float64
	// workTime is the compute time of the most recent full iteration — the
	// node weight of the processor graph. The thesis accumulates time since
	// the last balancing; measuring the latest iteration keeps decisions
	// fresh when the application's load shifts (Fig. 23), which matters on
	// deterministic clocks.
	workTime float64

	// balHist is the bounded window of balancing-invocation load records
	// handed to history-aware balancers (see HistoryBalancer). Populated on
	// rank 0 only, and only when the configured balancer asks for history,
	// so runs with the classic balancers carry no extra state. Part of the
	// checkpointed rank state: a resumed run forecasts from exactly the
	// window the uninterrupted run would hold.
	balHist []LoadSample

	migrations int
	// cut is the weighted edge cut of owner, which the trace records after
	// every iteration. Kept on rank 0 of a traced run only: Run counts it
	// once from the owner map the run starts with, and migrateRound adds
	// each committed move's change.
	cut int
	// elapsed is the rank's time from start to the final barrier, which
	// Run folds into Result.Elapsed.
	elapsed float64
}

// nodeState is what a processor that holds nodes keeps besides: its part
// of the run's layout (node lists, table, peers, plans) and this run's
// values: entries, a pair of send buffers per peer, the neighbour list.
type nodeState struct {
	*rankLayout
	layoutShared bool // rankLayout is still the run's shared part (ownLayout)

	ents []entry // the rank's data node list, indexed as the table indexes it

	// pools[k] holds two generations of send buffers for peers[k].proc;
	// exchanges alternate them (rankState.gen), so a buffer handed to Isend
	// in exchange k is only repacked in exchange k+2. That is safe under
	// deliver-by-reference: I also receive from every peer I send to, and
	// proc's exchange-(k+1) buffer proves it has unpacked my exchange k.
	// Isend carries &pools[k][gen], which allocates nothing, and the same
	// argument covers the header the receiver reads through it. A peer
	// that survives a migration keeps its pair (reclassifyAll).
	pools [][2][]shadowUpdate

	// nbrScratch is the recycled node+neighbors list for the node function.
	nbrScratch []Neighbor
}

// entry is one data-node-list element (struct node_data): the current data
// and the most recent data, which must be kept separate because "the old
// data might still be required for the computation purposes of the
// neighboring nodes". id repeats the table's, so a neighbour's id and data
// are read from one place. lastCost is an owned node's compute cost in the
// latest iteration; the migration-node selection sheds hot nodes first.
type entry struct {
	id         graph.NodeID
	data       NodeData
	mostRecent NodeData
	lastCost   float64
}

// shadowUpdate is one packed buffer element (struct buffer_data_node):
// global ID plus the node's updated data.
type shadowUpdate struct {
	id   graph.NodeID
	data NodeData
}

func updateBytes(us []shadowUpdate) int {
	total := 0
	for _, u := range us {
		total += 4 + u.data.SizeBytes()
	}
	return total
}

// ownOwner gives the rank a private copy of the owner map if it is still
// reading the run's shared one. Every write to s.owner comes after it.
func (s *rankState) ownOwner() {
	if s.ownerShared {
		s.owner = slices.Clone(s.owner)
		s.ownerShared = false
	}
}

// ownLayout gives the rank a private copy of its part of the layout if it
// still reads the shared one. Every write to a node list, the table, a
// peer or a plan comes after it, as owner map writes follow ownOwner.
func (s *rankState) ownLayout() {
	if s.layoutShared {
		s.rankLayout = s.rankLayout.clone(s.cfg.Graph.Adj)
		s.layoutShared = false
	}
}

// initEntries counts a node-list and a data entry per owned node and an
// entry per shadow; at start-up each shadow is in one receive plan.
func (n *nodeState) initEntries() int {
	if n == nil {
		return 0
	}
	k := 2 * n.numOwned()
	for i := range n.peers {
		k += len(n.peers[i].in)
	}
	return k
}

// resolve looks up node's own entry and its neighbors' entries; node.nbr
// must already have one slot per neighbor. A node that arrives by
// migration is resolved this way.
func (s *rankState) resolve(node *ownNode) {
	node.self = s.table.Lookup(node.id)
	for i, u := range s.cfg.Graph.Adj[node.id] {
		node.nbr[i] = s.table.Lookup(u)
	}
}

// sendRow materializes the dense per-processor send-count vector (with
// numOwned appended — the row the load balancer gathers at rank 0). The
// balancer's processor graph is inherently dense, so the O(P) expansion is
// paid only inside balancing rounds, never per exchange.
func (s *rankState) sendRow() []int {
	row := make([]int, s.cfg.Procs+1)
	if s.nodeState != nil {
		for _, pe := range s.peers {
			row[pe.proc] = pe.send
		}
	}
	row[s.cfg.Procs] = s.numOwned()
	return row
}

// reclassifyAll rebuilds the internal/peripheral split after ownership
// changes: internal nodes that gained a remote neighbor move to the
// peripheral list and vice versa, and every peripheral node's shadowFor
// set is recomputed (the thesis' post-migration "Updating the
// shadow_for_procs[] array for the peripheral nodes" loop). Placing the
// nodes in id order keeps both lists ascending. A peer that survives
// keeps its pair of send buffers, and a new one starts with none.
func (s *rankState) reclassifyAll() {
	s.ownLayout()
	adj := s.cfg.Graph.Adj
	all := slices.Concat(s.internal, s.peripheral)
	slices.SortFunc(all, func(a, b *ownNode) int { return cmp.Compare(a.id, b.id) })
	s.internal, s.peripheral = s.internal[:0], s.peripheral[:0]
	for _, node := range all {
		s.place(node, adj, s.owner, s.me)
	}
	old, oldPools := slices.Clone(s.peers), s.pools
	s.rebuildCounts()
	s.pools = make([][2][]shadowUpdate, len(s.peers))
	for i, pe := range s.peers {
		if j, ok := slices.BinarySearchFunc(old, pe.proc, func(q peer, p int) int { return cmp.Compare(q.proc, p) }); ok {
			s.pools[i] = oldPools[j]
		}
	}
	s.planExchange(adj, s.owner, s.me, make([]int32, len(s.peers)))
}

// numOwned returns the number of nodes this rank owns.
func (n *nodeState) numOwned() int {
	if n == nil {
		return 0
	}
	return len(n.internal) + len(n.peripheral)
}

// checkInvariants validates the state's internal consistency; runs with
// Config.CheckInvariants set call it after every iteration and after
// every migration round.
func (s *rankState) checkInvariants() error {
	if s.cfg.Trace != nil && s.me == 0 {
		if want := partitionCut(s.cfg.Graph, s.owner); s.cut != want {
			return fmt.Errorf("rank 0: running edge cut %d, owner map gives %d", s.cut, want)
		}
	}
	if s.nodeState == nil {
		if v := slices.Index(s.owner, s.me); v >= 0 {
			return fmt.Errorf("rank %d: holds no node state but owns node %d", s.me, v)
		}
		return nil
	}
	for _, node := range s.internal {
		if len(node.shadowFor) != 0 {
			return fmt.Errorf("rank %d: internal node %d has shadowFor %v", s.me, node.id, node.shadowFor)
		}
		for _, u := range s.cfg.Graph.Adj[node.id] {
			if s.owner[u] != s.me {
				return fmt.Errorf("rank %d: internal node %d has remote neighbor %d", s.me, node.id, u)
			}
		}
	}
	for _, node := range s.peripheral {
		remote := false
		for _, u := range s.cfg.Graph.Adj[node.id] {
			if s.owner[u] != s.me {
				remote = true
				if !slices.Contains(node.shadowFor, int32(s.owner[u])) {
					return fmt.Errorf("rank %d: peripheral node %d missing shadowFor %d", s.me, node.id, s.owner[u])
				}
			}
		}
		if !remote {
			return fmt.Errorf("rank %d: peripheral node %d has no remote neighbor", s.me, node.id)
		}
	}
	for _, list := range [2][]*ownNode{s.internal, s.peripheral} {
		for i, node := range list {
			// A peer's receive plan follows this rank's packing order.
			if i > 0 && list[i-1].id >= node.id {
				return fmt.Errorf("rank %d: node list not strictly ascending at %d (node %d after %d)", s.me, i, node.id, list[i-1].id)
			}
			if s.owner[node.id] != s.me {
				return fmt.Errorf("rank %d: node lists hold non-owned node %d", s.me, node.id)
			}
			// The resolved indices must be exactly what a look-up returns,
			// and every neighbor's entry present.
			if k := s.table.Lookup(node.id); k < 0 || node.self != k {
				return fmt.Errorf("rank %d: owned node %d's entry is missing or not the resolved one", s.me, node.id)
			}
			adj := s.cfg.Graph.Adj[node.id]
			if len(node.nbr) != len(adj) {
				return fmt.Errorf("rank %d: node %d has %d resolved neighbors of %d", s.me, node.id, len(node.nbr), len(adj))
			}
			for i, u := range adj {
				if k := s.table.Lookup(u); k < 0 || node.nbr[i] != k {
					return fmt.Errorf("rank %d: node %d's resolved entry for neighbor %d is missing or not the table's", s.me, node.id, u)
				}
			}
		}
	}
	if len(s.ents) != len(s.table.links) || len(s.pools) != len(s.peers) {
		return fmt.Errorf("rank %d: %d entries for %d table ids, %d send-buffer pairs for %d peers", s.me, len(s.ents), len(s.table.links), len(s.pools), len(s.peers))
	}
	owned := 0
	for k := range s.ents {
		id := s.table.ID(int32(k))
		if s.ents[k].id != id {
			return fmt.Errorf("rank %d: entry %d holds node %d, the table says %d", s.me, k, s.ents[k].id, id)
		}
		if s.owner[id] == s.me {
			owned++
		}
	}
	if owned != s.numOwned() {
		return fmt.Errorf("rank %d: %d entries of owned nodes for %d owned nodes", s.me, owned, s.numOwned())
	}
	return s.checkPeers()
}

// checkPeers validates the peer list and the plans: peers strictly
// ascending, never this rank itself, send and receive plan non-empty on
// every entry and equal to a from-scratch recount over the owner map and
// the application graph; each receive plan strictly ascending, owned by its
// peer and the table's; each send plan the peers of shadowFor.
func (s *rankState) checkPeers() error {
	send := make(map[int]int)
	recv := make(map[int]int)
	shadows := make(map[graph.NodeID]bool)
	for v, adj := range s.cfg.Graph.Adj {
		if s.owner[v] != s.me {
			continue
		}
		dests := make(map[int]bool)
		for _, u := range adj {
			p := s.owner[u]
			if p == s.me {
				continue
			}
			if !dests[p] {
				dests[p] = true
				send[p]++
			}
			if !shadows[u] {
				shadows[u] = true
				recv[p]++
			}
		}
	}
	if len(s.peers) != len(send) {
		return fmt.Errorf("rank %d: %d peers, owner map gives %d neighbouring processors", s.me, len(s.peers), len(send))
	}
	for i, pe := range s.peers {
		if i > 0 && s.peers[i-1].proc >= pe.proc {
			return fmt.Errorf("rank %d: peer list not strictly ascending at %d (proc %d after %d)", s.me, i, pe.proc, s.peers[i-1].proc)
		}
		if pe.proc == s.me {
			return fmt.Errorf("rank %d: peer list contains the rank itself", s.me)
		}
		if pe.send <= 0 || len(pe.in) <= 0 {
			return fmt.Errorf("rank %d: peer %d has send %d, recv %d; both must be positive", s.me, pe.proc, pe.send, len(pe.in))
		}
		if pe.send != send[pe.proc] || len(pe.in) != recv[pe.proc] {
			return fmt.Errorf("rank %d: peer %d has send %d, recv %d; owner map gives %d, %d",
				s.me, pe.proc, pe.send, len(pe.in), send[pe.proc], recv[pe.proc])
		}
		for k, e := range pe.in {
			id := s.table.ID(e)
			if k > 0 && s.table.ID(pe.in[k-1]) >= id {
				return fmt.Errorf("rank %d: receive plan from %d not strictly ascending at %d", s.me, pe.proc, k)
			}
			if s.owner[id] != pe.proc || e != s.table.Lookup(id) {
				return fmt.Errorf("rank %d: receive plan from %d holds node %d, owned by %d, or not the table's entry", s.me, pe.proc, id, s.owner[id])
			}
		}
	}
	for _, node := range s.peripheral {
		if len(node.out) != len(node.shadowFor) {
			return fmt.Errorf("rank %d: node %d sends to %d peers for %d processors", s.me, node.id, len(node.out), len(node.shadowFor))
		}
		for j, p := range node.shadowFor {
			if k := node.out[j]; k < 0 || int(k) >= len(s.peers) || s.peers[k].proc != int(p) {
				return fmt.Errorf("rank %d: node %d's send plan for proc %d is not that peer", s.me, node.id, p)
			}
		}
	}
	return nil
}
