package platform

import (
	"cmp"
	"fmt"
	"reflect"
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
	// start and end are the rank's clock at its run's start and at the last
	// barrier, which Run settles after the ranks return unless a gather
	// follows it: each is released at the latest end, and Elapsed ends there.
	start, end float64
}

// nodeState is what a processor that holds nodes keeps besides: its part
// of the run's layout (node lists, table, peers, plans) and this run's
// values.
type nodeState struct {
	*rankLayout
	layoutShared bool // rankLayout is still the run's shared part (ownLayout)

	vals rankValues
}

// rankValues is the part of a rank's state that holds node values, of the
// node function's type (values); the rest of the rank reaches it through
// these methods, none of which is called per node.
type rankValues interface {
	round(s *rankState, iter, sub int) error
	addPeer(k int)
	dropPeer(k int)
	lastCost(k int32) float64
	sendMigrant(s *rankState, m migration, node *ownNode) error
	absorb(s *rankState, m migration, payload any) error
	capture(s *rankState) []NodeSnap
	checkEntries(s *rankState) error
}

// nodeFunc is the NodeFunc Node builds for values of type T.
type nodeFunc[T NodeData] func(id graph.NodeID, iter, sub int, self T, neighbors []Neighbor[T]) (T, float64)

// values is a rank's entries, send buffers and neighbour list, of the node
// function's type T.
type values[T NodeData] struct {
	node     nodeFunc[T]
	nillable bool // T is a pointer or an interface type, so a result may be nil

	ents []entry[T] // the rank's data node list, indexed as the table indexes it

	// pools[k] holds two generations of send buffers for peers[k].proc;
	// exchanges alternate them (rankState.gen), so a buffer handed to Isend
	// in exchange k is only repacked in exchange k+2. That is safe under
	// deliver-by-reference: I also receive from every peer I send to, and
	// proc's exchange-(k+1) buffer proves it has unpacked my exchange k.
	// Isend carries &pools[k][gen], which allocates nothing, and the same
	// argument covers the header the receiver reads through it, so a peer
	// that comes or goes makes a new pools array (localUpdate).
	pools [][2][]shadowUpdate[T]

	// nbrScratch is the recycled node+neighbors list for the node function.
	nbrScratch []Neighbor[T]
}

// entry is one data-node-list element (struct node_data): the current data
// and the most recent data, which must be kept separate because "the old
// data might still be required for the computation purposes of the
// neighboring nodes". id repeats the table's, so a neighbour's id and data
// are read from one place. lastCost is an owned node's compute cost in the
// latest iteration; the migration-node selection sheds hot nodes first.
type entry[T NodeData] struct {
	id         graph.NodeID
	data       T
	mostRecent T
	lastCost   float64
}

// shadowUpdate is one packed buffer element (struct buffer_data_node):
// global ID plus the node's updated data.
type shadowUpdate[T NodeData] struct {
	id   graph.NodeID
	data T
}

func updateBytes[T NodeData](us []shadowUpdate[T]) int {
	total := 0
	for _, u := range us {
		total += 4 + u.data.SizeBytes()
	}
	return total
}

// nillable reports whether T is a pointer or an interface type, the types
// whose nil (isNil) a run refuses as a node value.
func nillable[T NodeData]() bool {
	k := reflect.TypeFor[T]().Kind()
	return k == reflect.Pointer || k == reflect.Interface
}

func isNil[T NodeData](v T) bool { var zero T; return any(v) == any(zero) }

// typed asserts d, node id's value from source, to T.
func typed[T NodeData](d NodeData, id graph.NodeID, source string) (t T, err error) {
	t, ok := d.(T)
	if d == nil {
		err = fmt.Errorf("platform: %s nil for node %d", source, id)
	} else if !ok {
		err = fmt.Errorf("platform: %s %T for node %d, the node function takes %v: %w", source, d, id, reflect.TypeFor[T](), ErrDataType)
	}
	return t, err
}

func (v *values[T]) addPeer(k int) {
	v.pools = slices.Insert(slices.Clip(v.pools), k, [2][]shadowUpdate[T]{})
}

func (v *values[T]) dropPeer(k int) { v.pools = slices.Concat(v.pools[:k], v.pools[k+1:]) }

func (v *values[T]) lastCost(k int32) float64 { return v.ents[k].lastCost }

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

// localUpdate is the thesis' post-migration update of shadow_for_procs[],
// made only where the round's moves can change anything: a node's
// shadowFor set depends only on its neighbours' owners, so only the moved
// nodes this rank now owns and its own neighbours of a moved node are
// placed again (reclassify), and only a moved node or a neighbour of one
// can enter or leave a receive plan (replan). A peer whose send count
// reaches zero goes with its buffers, in a new pools array (see
// values.pools); a peer that comes or goes renumbers the send plans.
func (s *rankState) localUpdate(round []migration) {
	s.ownLayout()
	adj := s.cfg.Graph.Adj
	renumber := false
	for _, m := range round {
		if s.owner[m.node] == s.me {
			renumber = s.reclassify(m.node) || renumber
		}
		for _, u := range adj[m.node] {
			if s.owner[u] == s.me {
				renumber = s.reclassify(u) || renumber
			}
		}
	}
	for _, m := range round {
		s.replan(m.node, m.from)
		for _, u := range adj[m.node] {
			s.replan(u, s.owner[u])
		}
	}
	for k := len(s.peers) - 1; k >= 0; k-- {
		if s.peers[k].send == 0 {
			s.peers = slices.Delete(s.peers, k, k+1)
			s.vals.dropPeer(k)
			renumber = true
		}
	}
	if !renumber {
		return
	}
	for _, node := range s.peripheral {
		for j, p := range node.shadowFor {
			node.out[j] = int32(s.peerIndex(int(p)))
		}
	}
}

// reclassify takes owned node v out of its list and places it again, by
// its new shadowFor set, and moves the peers' send counts from its old set
// to its new one (a new peer with an empty pair of buffers). It fills v's
// send plan and reports whether it inserted a peer.
func (s *rankState) reclassify(v graph.NodeID) (inserted bool) {
	list := &s.peripheral
	i, ok := nodeIndex(*list, v)
	if !ok {
		list = &s.internal
		i, _ = nodeIndex(*list, v)
	}
	node := (*list)[i]
	*list = slices.Delete(*list, i, i+1)
	for _, p := range node.shadowFor {
		s.peers[s.peerIndex(int(p))].send--
	}
	s.place(node, s.cfg.Graph.Adj, s.owner, s.me)
	for _, p := range node.shadowFor {
		k, ok := s.peerAt(int(p))
		if !ok {
			s.peers = slices.Insert(s.peers, k, peer{proc: int(p)})
			s.vals.addPeer(k)
			inserted = true
		}
		s.peers[k].send++
		node.out = append(node.out, int32(k))
	}
	return inserted
}

// replan applies the receive-plan rule to c, whose owner before the round
// was old: a shadow is in its owner's plan, in id order, exactly when a node
// this rank owns neighbours it. A moved c leaves old's plan first. Seeing c
// twice, as a neighbour of two moved nodes or as a moved node and a
// neighbour (with old its new owner), applies the rule again.
func (s *rankState) replan(c graph.NodeID, old int) {
	p := s.owner[c]
	if k, ok := s.peerAt(old); ok && old != p {
		s.planHolds(k, c, false)
	}
	if k, ok := s.peerAt(p); ok { // without a peer p, no node of mine neighbours c
		s.planHolds(k, c, slices.ContainsFunc(s.cfg.Graph.Adj[c], func(u graph.NodeID) bool { return s.owner[u] == s.me }))
	}
}

// planHolds inserts c into, or deletes it from, peer k's receive plan so
// that the plan holds c exactly when want.
func (s *rankState) planHolds(k int, c graph.NodeID, want bool) {
	in := &s.peers[k].in
	j, found := slices.BinarySearchFunc(*in, c, func(e int32, id graph.NodeID) int { return cmp.Compare(s.table.ID(e), id) })
	switch {
	case want && !found:
		*in = slices.Insert(*in, j, s.table.Lookup(c))
	case found && !want:
		*in = slices.Delete(*in, j, j+1)
	}
}

// nodeIndex finds node id in an id-ordered node list, or its place there.
func nodeIndex(list []*ownNode, id graph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(list, id, func(n *ownNode, id graph.NodeID) int { return cmp.Compare(n.id, id) })
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
	if err := s.vals.checkEntries(s); err != nil {
		return err
	}
	return s.checkPeers()
}

// checkEntries validates the entries against the table and the send-buffer
// pairs against the peers.
func (v *values[T]) checkEntries(s *rankState) error {
	if len(v.ents) != len(s.table.links) || len(v.pools) != len(s.peers) {
		return fmt.Errorf("rank %d: %d entries for %d table ids, %d send-buffer pairs for %d peers", s.me, len(v.ents), len(s.table.links), len(v.pools), len(s.peers))
	}
	owned := 0
	for k := range v.ents {
		id := s.table.ID(int32(k))
		if v.ents[k].id != id {
			return fmt.Errorf("rank %d: entry %d holds node %d, the table says %d", s.me, k, v.ents[k].id, id)
		}
		if s.owner[id] == s.me {
			owned++
		}
	}
	if owned != s.numOwned() {
		return fmt.Errorf("rank %d: %d entries of owned nodes for %d owned nodes", s.me, owned, s.numOwned())
	}
	return nil
}

// checkPeers validates the peer list and the plans: peers strictly
// ascending, never this rank itself, send and receive plan non-empty on
// every entry and equal to a from-scratch recount over the owner map and
// the application graph; each receive plan strictly ascending, owned by its
// peer, the table's and next to a node the rank owns; each send plan the
// peers of shadowFor.
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
			if !shadows[id] {
				return fmt.Errorf("rank %d: receive plan from %d holds node %d, which no node of the rank neighbours", s.me, pe.proc, id)
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
