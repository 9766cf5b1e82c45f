package platform

import (
	"fmt"
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
	neighbors  []graph.NodeID // sorted, from the application graph
	shadowFor  []int          // sorted processor ids; empty for internal nodes
	// lastCost is the node's observed compute cost in the most recent
	// iteration (summed over sub-phases). The migration-node selection
	// uses it to prefer shedding hot nodes.
	lastCost float64
}

// rankState is everything one processor keeps in local memory: the
// internal and peripheral node lists, the data store with its hash index
// (own + shadow entries), the node-to-owner map (the thesis' output_arr,
// replicated on every processor), and the communication buffer sizes.
type rankState struct {
	cfg  *Config
	comm *mpi.Comm
	me   int
	// speed caches the interconnect model's relative execution-time
	// multiplier for this processor (1 on homogeneous machines).
	speed float64

	owner []int // node -> owning processor, kept in sync across ranks

	internal   []*ownNode
	peripheral []*ownNode
	byID       map[graph.NodeID]*ownNode // index over internal+peripheral

	table *HashTable // own + shadow data entries

	// sendCount[p] is the number of my peripheral nodes that are shadows
	// for processor p (buffer_size_for_communication).
	sendCount []int
	// recvCount[p] is the number of shadow nodes I hold that p owns; I
	// expect exactly one update per such node per exchange.
	recvCount []int

	// sparse replaces the dense count vectors with neighbor-keyed maps.
	// A rank in a P-processor world talks to O(degree) neighbors, so the
	// dense sendCount/recvCount cost O(P) memory per rank — O(P²) across
	// the world — which is what caps the goroutine-kernel sweeps around a
	// thousand ranks. Above sparseStateThreshold the rank keeps only the
	// processors it actually exchanges with, in sendCountM/recvCountM, plus sorted
	// sendProcs/recvProcs so every loop still visits destinations in the
	// same ascending-processor order the dense scans use — that ordering
	// is what keeps the virtual timeline bit-identical across modes.
	sparse     bool
	sendCountM map[int]int
	recvCountM map[int]int
	sendProcs  []int
	recvProcs  []int

	// Exchange buffer pool (Config.ReuseBuffers). sendPool holds two
	// generations of per-destination send buffers; successive exchanges
	// alternate generations, so a buffer handed to Isend in exchange k is
	// only truncated and repacked in exchange k+2. That gap is what makes
	// reuse safe under the runtime's deliver-by-reference contract: shadow
	// exchange is symmetric (sendCount[p] > 0 iff recvCount[p] > 0), so
	// receiving p's exchange-(k+1) buffer proves p finished its exchange k
	// and has already unpacked everything we sent it in exchange k.
	// nbrScratch is the recycled node+neighbors list handed to the node
	// function. All three stay nil unless ReuseBuffers is on.
	sendPool [2][][]shadowUpdate
	// sendPoolSparse is the sparse-mode twin of sendPool: the same
	// two-generation parity discipline, keyed by destination instead of
	// indexed by it.
	sendPoolSparse [2]map[int][]shadowUpdate
	exchanges      int
	nbrScratch     []Neighbor

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

// sparseStateThreshold is the processor count above which ranks switch
// from dense per-processor count vectors to the sparse neighbor-keyed
// bookkeeping (see rankState.sparse). A package variable rather than a
// constant so white-box tests can lower it to pit the sparse bookkeeping
// against the dense fast path at small scale; the virtual timeline is
// identical either way.
var sparseStateThreshold = 1024

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

// newRankState runs the initialization phase on one processor: it expands
// the node-to-processor mapping into node lists, the data node list and
// the hash table, charging the per-entry initialization overhead.
func newRankState(cfg *Config, comm *mpi.Comm) (*rankState, error) {
	t0 := comm.Wtime()
	s := &rankState{
		cfg:   cfg,
		comm:  comm,
		me:    comm.Rank(),
		speed: cfg.Network.Speed(comm.Rank()),
		owner: append([]int(nil), cfg.InitialPartition...),
		byID:  make(map[graph.NodeID]*ownNode),
	}
	n := cfg.Graph.NumVertices()
	buckets := n/2 + 1
	table, err := NewHashTable(buckets)
	if err != nil {
		return nil, err
	}
	s.table = table
	s.sparse = cfg.Procs > sparseStateThreshold
	if s.sparse {
		s.sendCountM = make(map[int]int)
		s.recvCountM = make(map[int]int)
	} else {
		s.sendCount = make([]int, cfg.Procs)
		s.recvCount = make([]int, cfg.Procs)
	}

	entries := 0
	// Build own node lists and own data entries.
	for v := 0; v < n; v++ {
		if s.owner[v] != s.me {
			continue
		}
		id := graph.NodeID(v)
		node := &ownNode{id: id, neighbors: cfg.Graph.Adj[v]}
		d := cfg.InitData(id)
		if d == nil {
			return nil, fmt.Errorf("platform: InitData returned nil for node %d", id)
		}
		if err := s.table.Insert(&entry{id: id, data: d, mostRecent: d}); err != nil {
			return nil, err
		}
		entries++
		s.classify(node)
		if node.peripheral {
			s.peripheral = append(s.peripheral, node)
		} else {
			s.internal = append(s.internal, node)
		}
		s.byID[id] = node
		entries++
	}
	// Insert shadow entries: non-local neighbors of peripheral nodes.
	for _, node := range s.peripheral {
		for _, u := range node.neighbors {
			if s.owner[u] == s.me || s.table.Lookup(u) != nil {
				continue
			}
			d := cfg.InitData(u)
			if d == nil {
				return nil, fmt.Errorf("platform: InitData returned nil for node %d", u)
			}
			if err := s.table.Insert(&entry{id: u, data: d, mostRecent: d}); err != nil {
				return nil, err
			}
			entries++
		}
	}
	s.rebuildCounts()
	comm.Charge(float64(entries) * cfg.Overheads.InitPerEntry)
	s.phase[PhaseInit] += comm.Wtime() - t0
	return s, nil
}

// classify recomputes a node's peripheral flag and shadowFor set from the
// current owner map.
func (s *rankState) classify(node *ownNode) {
	node.shadowFor = node.shadowFor[:0]
	node.peripheral = false
	for _, u := range node.neighbors {
		p := s.owner[u]
		if p == s.me {
			continue
		}
		node.peripheral = true
		if !containsInt(node.shadowFor, p) {
			node.shadowFor = append(node.shadowFor, p)
		}
	}
	sort.Ints(node.shadowFor)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// rebuildCounts recomputes sendCount and recvCount from the node lists and
// the owner map. sendCount falls out of the peripheral shadowFor sets;
// recvCount counts distinct shadow nodes per owning processor. In sparse
// mode the counts live in maps and the sorted sendProcs/recvProcs lists
// are rebuilt alongside.
func (s *rankState) rebuildCounts() {
	if s.sparse {
		clear(s.sendCountM)
		clear(s.recvCountM)
		for _, node := range s.peripheral {
			for _, p := range node.shadowFor {
				s.sendCountM[p]++
			}
		}
		seen := make(map[graph.NodeID]bool)
		for _, node := range s.peripheral {
			for _, u := range node.neighbors {
				p := s.owner[u]
				if p != s.me && !seen[u] {
					seen[u] = true
					s.recvCountM[p]++
				}
			}
		}
		s.sendProcs = sortedProcs(s.sendCountM, s.sendProcs)
		s.recvProcs = sortedProcs(s.recvCountM, s.recvProcs)
		return
	}
	for p := range s.sendCount {
		s.sendCount[p] = 0
		s.recvCount[p] = 0
	}
	for _, node := range s.peripheral {
		for _, p := range node.shadowFor {
			s.sendCount[p]++
		}
	}
	seen := make(map[graph.NodeID]bool)
	for _, node := range s.peripheral {
		for _, u := range node.neighbors {
			p := s.owner[u]
			if p != s.me && !seen[u] {
				seen[u] = true
				s.recvCount[p]++
			}
		}
	}
}

// sortedProcs collects a count map's keys in ascending order, reusing buf.
func sortedProcs(counts map[int]int, buf []int) []int {
	buf = buf[:0]
	for p := range counts {
		buf = append(buf, p)
	}
	sort.Ints(buf)
	return buf
}

// sendRow materializes the dense per-processor send-count vector (with
// numOwned appended — the row the load balancer gathers at rank 0). The
// balancer's processor graph is inherently dense, so sparse mode pays the
// O(P) expansion only inside balancing rounds, never per exchange.
func (s *rankState) sendRow() []int {
	row := make([]int, s.cfg.Procs+1)
	if s.sparse {
		for _, p := range s.sendProcs {
			row[p] = s.sendCountM[p]
		}
	} else {
		copy(row, s.sendCount)
	}
	row[s.cfg.Procs] = s.numOwned()
	return row
}

// reclassifyAll rebuilds the internal/peripheral split after ownership
// changes: internal nodes that gained a remote neighbor move to the
// peripheral list and vice versa, and every peripheral node's shadowFor
// set is recomputed (the thesis' post-migration "Updating the
// shadow_for_procs[] array for the peripheral nodes" loop).
func (s *rankState) reclassifyAll() {
	all := make([]*ownNode, 0, len(s.internal)+len(s.peripheral))
	all = append(all, s.internal...)
	all = append(all, s.peripheral...)
	s.internal = s.internal[:0]
	s.peripheral = s.peripheral[:0]
	for _, node := range all {
		s.classify(node)
		if node.peripheral {
			s.peripheral = append(s.peripheral, node)
		} else {
			s.internal = append(s.internal, node)
		}
	}
	sortNodes(s.internal)
	sortNodes(s.peripheral)
	s.rebuildCounts()
}

func sortNodes(nodes []*ownNode) {
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].id < nodes[b].id })
}

// ownsNode reports whether this rank currently owns id.
func (s *rankState) ownsNode(id graph.NodeID) bool { return s.owner[id] == s.me }

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
		for _, u := range node.neighbors {
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
		for _, u := range node.neighbors {
			if s.owner[u] != s.me {
				remote = true
				if !containsInt(node.shadowFor, s.owner[u]) {
					return fmt.Errorf("rank %d: peripheral node %d missing shadowFor %d", s.me, node.id, s.owner[u])
				}
			}
		}
		if !remote {
			return fmt.Errorf("rank %d: peripheral node %d has no remote neighbor", s.me, node.id)
		}
	}
	for id, node := range s.byID {
		if id != node.id {
			return fmt.Errorf("rank %d: byID key %d points at node %d", s.me, id, node.id)
		}
		if s.owner[id] != s.me {
			return fmt.Errorf("rank %d: byID holds non-owned node %d", s.me, id)
		}
		if s.table.Lookup(id) == nil {
			return fmt.Errorf("rank %d: owned node %d missing from hash table", s.me, id)
		}
	}
	if len(s.byID) != s.numOwned() {
		return fmt.Errorf("rank %d: byID has %d entries for %d owned nodes", s.me, len(s.byID), s.numOwned())
	}
	// Every shadow needed for computation must be present in the table.
	for _, node := range s.peripheral {
		for _, u := range node.neighbors {
			if s.table.Lookup(u) == nil {
				return fmt.Errorf("rank %d: shadow %d of peripheral %d missing", s.me, u, node.id)
			}
		}
	}
	return nil
}
