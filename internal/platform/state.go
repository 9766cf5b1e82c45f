package platform

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// ownNode is the per-node bookkeeping record of Fig. 7 (struct own_node):
// node kind, the neighbor list, and the set of processors for which this
// node is a shadow ("by analyzing this array for each of its peripheral
// nodes, a processor exactly knows the neighboring processors it needs to
// communicate, and what to communicate").
type ownNode struct {
	id         graph.NodeID
	peripheral bool
	shadowFor  []int32 // sorted processor ids; empty for internal nodes; cap = degree
	// self is the node's own data entry and nbr[i] the entry of its i-th
	// neighbor in the application graph (so the neighbor list is the ids
	// nbr[i].id), found once when the node joins the rank (buildRanks at
	// start-up and on resume, resolve on migration).
	// A rank never removes an entry from its table, so the pointers stay
	// equal to what a look-up would return, and the compute loop does none.
	self *entry
	nbr  []*entry
	// out is the send plan (planExchange): the pool of each processor in
	// shadowFor, in that order. Nil for internal nodes.
	out []*[2][]shadowUpdate
	// lastCost is the node's observed compute cost in the most recent
	// iteration (summed over sub-phases). The migration-node selection
	// uses it to prefer shedding hot nodes.
	lastCost float64
}

// rankState is everything one processor keeps in local memory: the
// internal and peripheral node lists, the data store with its hash index
// (own + shadow entries), the node-to-owner map (the thesis' output_arr),
// and the communication buffer sizes.
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

	internal   []*ownNode // ascending by id between migration rounds
	peripheral []*ownNode // the same; entry.own points back at a record

	table HashTable // own + shadow data entries

	// planIn and planOut back the receive and send plans (planExchange).
	planIn  []*entry
	planOut []*[2][]shadowUpdate

	// peers is the exchange bookkeeping: one entry per processor this rank
	// shares a graph edge with, in strictly ascending proc order. A rank in
	// a P-processor world talks to O(degree) neighbours, so this is the
	// whole per-rank exchange state at every P. Every exchange loop ranges
	// over it, and the ascending order is what pins the send/receive
	// sequence — and with it the virtual timeline.
	peers []peer

	// gen is the peer.pool generation the current exchange packs and sends;
	// nextBuffers flips it as every exchange starts. nbrScratch is the
	// recycled node+neighbors list handed to the node function.
	gen        int
	nbrScratch []Neighbor

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
}

// peer is what a rank keeps per neighbouring processor.
type peer struct {
	proc int
	// send is the number of my peripheral nodes that are shadows on proc
	// (buffer_size_for_communication). in is the receive plan: the entries
	// of the shadows proc owns, in the order proc packs them — its
	// peripheral list, ascending by id — so the k-th update of an exchange
	// is stored in in[k]. Both are non-empty: either way the entry exists
	// because one of my nodes is adjacent to one of proc's.
	send int
	in   []*entry
	// pool holds two generations of send buffers for proc; successive
	// exchanges alternate generations (rankState.gen), so a buffer handed to
	// Isend in exchange k is only truncated and repacked in exchange k+2.
	// That gap is what makes reuse safe under the runtime's
	// deliver-by-reference contract: I also receive from every peer I send
	// to, so receiving proc's exchange-(k+1) buffer proves proc finished its
	// exchange k and has already unpacked everything I sent it in exchange k.
	// The array is made once, with the peer (buildRanks, or the first plan
	// that names a peer a migration added), and Isend
	// carries &pool[gen]: a pointer in an interface allocates nothing where
	// a slice header did on every send. The receiver reads the header
	// through it when it unpacks, and the header is written only by that
	// truncating and repacking, so the same argument covers it.
	pool *[2][]shadowUpdate
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

// nodesByOwner inverts a node-to-owner map: the result lists each
// processor's nodes in ascending order, all in one backing array. Run builds
// it once so that no rank has to scan the whole map for its own nodes.
func nodesByOwner(owner []int, procs int) [][]graph.NodeID {
	start := make([]int, procs+1)
	for _, p := range owner {
		start[p+1]++
	}
	for p := 0; p < procs; p++ {
		start[p+1] += start[p]
	}
	nodes := make([]graph.NodeID, len(owner))
	lists := make([][]graph.NodeID, procs)
	for p := range lists {
		lists[p] = nodes[start[p]:start[p]:start[p+1]]
	}
	for v, p := range owner {
		lists[p] = append(lists[p], graph.NodeID(v))
	}
	return lists
}

// initEntries counts a node-list and a data entry per owned node and an
// entry per shadow; at start-up each shadow is in one receive plan.
func (s *rankState) initEntries() int {
	n := 2 * s.numOwned()
	for i := range s.peers {
		n += len(s.peers[i].in)
	}
	return n
}

// resolve looks up node's own entry, which it links back to the node, and
// its neighbors' entries; node.nbr must already have one slot per neighbor.
// A node that arrives by migration is resolved this way.
func (s *rankState) resolve(node *ownNode) {
	node.self = s.table.Lookup(node.id)
	node.self.own = node
	for i, u := range s.cfg.Graph.Adj[node.id] {
		node.nbr[i] = s.table.Lookup(u)
	}
}

// place classifies node against the current owner map and appends it to
// the internal or the peripheral list.
func (s *rankState) place(node *ownNode) {
	s.classify(node)
	if node.peripheral {
		s.peripheral = append(s.peripheral, node)
	} else {
		s.internal = append(s.internal, node)
	}
}

// classify recomputes a node's peripheral flag and shadowFor set from the
// current owner map. The send plan derived from the old set is dropped;
// planExchange builds the new one.
func (s *rankState) classify(node *ownNode) {
	node.shadowFor = node.shadowFor[:0]
	node.peripheral = false
	node.out = nil
	for _, u := range s.cfg.Graph.Adj[node.id] {
		p := s.owner[u]
		if p == s.me {
			continue
		}
		node.peripheral = true
		if !slices.Contains(node.shadowFor, int32(p)) {
			node.shadowFor = append(node.shadowFor, int32(p))
		}
	}
	slices.Sort(node.shadowFor)
}

// rebuildCounts recomputes the peer list from the peripheral shadowFor
// sets: one peer per processor they name (by symmetry, the owners of my
// shadows), with send counting the nodes that name it. Entries are edited
// in place, so a peer that survives a migration keeps its pooled buffers,
// and one left without a shared edge is dropped.
func (s *rankState) rebuildCounts() {
	for i := range s.peers {
		s.peers[i].send = 0
	}
	for _, node := range s.peripheral {
		for _, p := range node.shadowFor {
			s.peerFor(int(p)).send++
		}
	}
	// DeleteFunc zeroes the vacated tail, releasing the dropped peers'
	// pooled buffers.
	s.peers = slices.DeleteFunc(s.peers, func(pe peer) bool { return pe.send == 0 })
}

// planExchange builds the receive and send plans of the current partition
// epoch from the resolved pointers, with no look-up, at start-up, on resume
// and in reclassifyAll; rounds only execute them until the next ownership
// change. The plans fill planIn and planOut where they fit and new arrays
// where they do not. count is scratch with one slot per peer.
//
// A peer packs its peripheral nodes in ascending id order, so its receive
// plan is the shadows it owns, sorted and each once. A counting pass by
// peer gives each peer a segment of planIn with a slot per arc to one of
// its nodes; filled in node order, a segment arrives nearly sorted, and is
// sorted, compacted and moved down against the segment before it.
func (s *rankState) planExchange(count []int32) {
	clear(count)
	sends := 0
	for _, node := range s.peripheral {
		sends += len(node.shadowFor)
		for _, e := range node.nbr {
			if p := s.owner[e.id]; p != s.me {
				count[s.peerIndex(p)]++
			}
		}
	}
	if cap(s.planOut) < sends {
		s.planOut = make([]*[2][]shadowUpdate, sends)
	}
	s.planOut = s.planOut[:sends]
	out := s.planOut
	for _, node := range s.peripheral {
		n := len(node.shadowFor)
		node.out, out = out[:n:n], out[n:]
		for j, p := range node.shadowFor {
			pe := &s.peers[s.peerIndex(int(p))]
			if pe.pool == nil { // a peer new to this epoch
				pe.pool = new([2][]shadowUpdate)
			}
			node.out[j] = pe.pool
		}
	}

	start := int32(0)
	for k, n := range count {
		count[k], start = start, start+n
	}
	if cap(s.planIn) < int(start) {
		s.planIn = make([]*entry, start)
	}
	s.planIn = s.planIn[:start]
	in := s.planIn
	for _, node := range s.peripheral {
		for _, e := range node.nbr {
			if p := s.owner[e.id]; p != s.me {
				k := s.peerIndex(p)
				in[count[k]] = e
				count[k]++
			}
		}
	}
	// count[k] is now the end of peer k's segment.
	lo, n := 0, 0
	for k := range s.peers {
		seg := in[lo:count[k]]
		lo = int(count[k])
		slices.SortFunc(seg, func(a, b *entry) int { return cmp.Compare(a.id, b.id) })
		m := copy(in[n:], slices.Compact(seg))
		s.peers[k].in = in[n : n+m : n+m]
		n += m
	}
}

// peerIndex returns the position of processor p in the peer list, or the
// position it would be inserted at.
func (s *rankState) peerIndex(p int) int {
	return sort.Search(len(s.peers), func(i int) bool { return s.peers[i].proc >= p })
}

// peerFor returns the entry for processor p, inserting an empty one at its
// place in the ascending order if there is none (planExchange gives it a
// pool). The pointer is valid until the next insertion.
func (s *rankState) peerFor(p int) *peer {
	i := s.peerIndex(p)
	if i == len(s.peers) || s.peers[i].proc != p {
		s.peers = slices.Insert(s.peers, i, peer{proc: p})
	}
	return &s.peers[i]
}

// sendRow materializes the dense per-processor send-count vector (with
// numOwned appended — the row the load balancer gathers at rank 0). The
// balancer's processor graph is inherently dense, so the O(P) expansion is
// paid only inside balancing rounds, never per exchange.
func (s *rankState) sendRow() []int {
	row := make([]int, s.cfg.Procs+1)
	for _, pe := range s.peers {
		row[pe.proc] = pe.send
	}
	row[s.cfg.Procs] = s.numOwned()
	return row
}

// reclassifyAll rebuilds the internal/peripheral split after ownership
// changes: internal nodes that gained a remote neighbor move to the
// peripheral list and vice versa, and every peripheral node's shadowFor
// set is recomputed (the thesis' post-migration "Updating the
// shadow_for_procs[] array for the peripheral nodes" loop). Placing the
// nodes in id order keeps both lists ascending.
func (s *rankState) reclassifyAll() {
	all := slices.Concat(s.internal, s.peripheral)
	slices.SortFunc(all, func(a, b *ownNode) int { return cmp.Compare(a.id, b.id) })
	s.internal, s.peripheral = s.internal[:0], s.peripheral[:0]
	for _, node := range all {
		s.place(node)
	}
	s.rebuildCounts()
	s.planExchange(make([]int32, len(s.peers)))
}

// numOwned returns the number of nodes this rank owns.
func (s *rankState) numOwned() int { return len(s.internal) + len(s.peripheral) }

// checkInvariants validates the state's internal consistency; runs with
// Config.CheckInvariants set call it after every iteration and after
// every migration round.
func (s *rankState) checkInvariants() error {
	for _, node := range s.internal {
		if node.peripheral {
			return fmt.Errorf("rank %d: node %d in internal list flagged peripheral", s.me, node.id)
		}
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
		if !node.peripheral {
			return fmt.Errorf("rank %d: node %d in peripheral list not flagged", s.me, node.id)
		}
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
			// The resolved pointers must be exactly what a look-up returns,
			// and every neighbor's entry present.
			if e := s.table.Lookup(node.id); e == nil || node.self != e || e.own != node {
				return fmt.Errorf("rank %d: owned node %d's entry is missing, not the resolved one, or does not point back at it", s.me, node.id)
			}
			adj := s.cfg.Graph.Adj[node.id]
			if len(node.nbr) != len(adj) {
				return fmt.Errorf("rank %d: node %d has %d resolved neighbors of %d", s.me, node.id, len(node.nbr), len(adj))
			}
			for i, u := range adj {
				if node.nbr[i] == nil || node.nbr[i] != s.table.Lookup(u) {
					return fmt.Errorf("rank %d: node %d's resolved entry for neighbor %d is missing or not the table's", s.me, node.id, u)
				}
			}
		}
	}
	owned := 0
	for _, link := range s.table.buckets {
		for ; link != nil; link = link.next {
			if link.data.own != nil {
				owned++
			}
		}
	}
	if owned != s.numOwned() {
		return fmt.Errorf("rank %d: %d entries point at a node record for %d owned nodes", s.me, owned, s.numOwned())
	}
	return s.checkPeers()
}

// checkPeers validates the peer list and the plans: peers strictly
// ascending, never this rank itself, send and receive plan non-empty on
// every entry and equal to a from-scratch recount over the owner map and
// the application graph; each receive plan strictly ascending, owned by its
// peer and the table's; each send plan the pools of shadowFor.
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
			if k > 0 && pe.in[k-1].id >= e.id {
				return fmt.Errorf("rank %d: receive plan from %d not strictly ascending at %d", s.me, pe.proc, k)
			}
			if s.owner[e.id] != pe.proc || e != s.table.Lookup(e.id) {
				return fmt.Errorf("rank %d: receive plan from %d holds node %d, owned by %d, or not the table's entry", s.me, pe.proc, e.id, s.owner[e.id])
			}
		}
	}
	for _, node := range s.peripheral {
		if len(node.out) != len(node.shadowFor) {
			return fmt.Errorf("rank %d: node %d sends to %d pools for %d processors", s.me, node.id, len(node.out), len(node.shadowFor))
		}
		for j, p := range node.shadowFor {
			if i := slices.IndexFunc(s.peers, func(pe peer) bool { return pe.proc == int(p) }); i < 0 || node.out[j] != s.peers[i].pool {
				return fmt.Errorf("rank %d: node %d's send plan for proc %d is not that peer's pool", s.me, node.id, p)
			}
		}
	}
	return nil
}
