package platform

import (
	"cmp"
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// The per-rank constructors buildRanks replaced, kept as the reference
// TestBuildMatchesReference and FuzzBuildRanks compare it with: each rank
// built its own state on its own goroutine, after the initial barrier
// (newRankState) or on resume (restoreRankState), and planned its exchange
// with one scan of its peripheral arcs per peer.

// emptyRankState is the start newRankState and restoreRankState share: the
// rank's identity, the run's shared node-to-owner map and an empty node
// state, which each drops again if the rank's table ends up empty.
func emptyRankState(cfg *Config, comm *mpi.Comm, owner []int) *rankState {
	return &rankState{
		cfg:         cfg,
		comm:        comm,
		me:          comm.Rank(),
		speed:       cfg.Network.Speed(comm.Rank()),
		owner:       owner,
		ownerShared: true,
		nodeState:   &nodeState{rankLayout: new(rankLayout), vals: cfg.Node.empty()},
	}
}

// newRankState runs the initialization phase on one processor: it expands
// mine, the nodes the initial partition gives this rank (ascending), into
// node lists, the data node list and the hash table, charging the per-entry
// initialization overhead.
func newRankState(cfg *Config, comm *mpi.Comm, mine []graph.NodeID) (*rankState, error) {
	t0 := comm.Wtime()
	s := emptyRankState(cfg, comm, cfg.InitialPartition)

	// Node lists first: they need only the owner map, and the non-local
	// neighbors of the peripheral nodes are the shadows the data index will
	// hold, in the order their data has always been initialized.
	ids := append(make([]graph.NodeID, 0, len(mine)+s.placeAll(mine)), mine...)
	s.refRebuildCounts()
	for _, node := range s.peripheral {
		for _, u := range cfg.Graph.Adj[node.id] {
			if s.owner[u] != s.me {
				ids = append(ids, u)
			}
		}
	}
	distinct := slices.Clone(ids[len(mine):])
	slices.Sort(distinct)
	shadows := len(slices.Compact(distinct))
	table, err := NewHashTable(len(mine) + shadows + 1)
	if err != nil {
		return nil, err
	}
	s.table = *table
	for _, id := range ids {
		if s.table.Lookup(id) >= 0 {
			continue
		}
		d := cfg.InitData(id)
		if d == nil {
			return nil, fmt.Errorf("platform: InitData returned nil for node %d", id)
		}
		vals := intVals(s)
		vals.ents = append(vals.ents, entry[IntData]{id: id, data: d.(IntData), mostRecent: d.(IntData)})
		if _, err := s.table.Insert(id); err != nil {
			return nil, err
		}
	}
	s.resolveAll()
	s.refPlanExchange()
	// One node-list and one data entry per owned node, one entry per shadow.
	comm.Charge(float64(2*len(mine)+shadows) * initPerEntry)
	s.phase[PhaseInit] += comm.Wtime() - t0
	if len(intVals(s).ents) == 0 {
		s.nodeState = nil
	}
	return s, nil
}

// restoreRankState rebuilds one rank's live state from a snapshot. It is
// the resume-side twin of newRankState: no InitData calls, no init-phase
// charges — the restored phase vector already accounts for them.
func restoreRankState(cfg *Config, comm *mpi.Comm, snap *RunSnapshot) (*rankState, error) {
	s := emptyRankState(cfg, comm, snap.Owner)
	rs := snap.Ranks[s.me]
	table, err := NewHashTable(len(rs.Nodes) + 1)
	if err != nil {
		return nil, err
	}
	s.table = *table
	mine := make([]graph.NodeID, 0, len(rs.Nodes))
	vals := intVals(s)
	vals.ents = make([]entry[IntData], len(rs.Nodes))
	for i, ns := range rs.Nodes {
		vals.ents[i] = entry[IntData]{id: ns.ID, data: ns.Data.(IntData), mostRecent: ns.Data.(IntData)}
		if _, err := s.table.Insert(ns.ID); err != nil {
			return nil, err
		}
		if ns.Owned {
			mine = append(mine, ns.ID)
		}
	}
	// rs.Nodes is ascending, so the per-kind lists come out sorted.
	s.placeAll(mine)
	s.refRebuildCounts()
	s.resolveAll()
	for _, node := range s.peripheral {
		if slices.Contains(node.nbr, -1) {
			return nil, fmt.Errorf("platform: resume snapshot rank %d lacks a shadow next to node %d", s.me, node.id)
		}
	}
	s.refPlanExchange()
	for i, ns := range rs.Nodes {
		if ns.Owned {
			vals.ents[i].lastCost = ns.LastCost
		}
	}
	s.phase = rs.Phase
	s.workTime = rs.WorkTime
	s.migrations = rs.Migrations
	s.balHist = slices.Clone(rs.History)
	if len(intVals(s).ents) == 0 {
		s.nodeState = nil
	}
	if err := s.checkInvariants(); err != nil {
		return nil, fmt.Errorf("platform: resume snapshot failed invariants: %w", err)
	}
	return s, nil
}

// placeAll makes the records of the owned nodes ids (ascending) in one
// array, carves their shadowFor sets out of one more, and places each. It
// returns their total degree.
func (s *rankState) placeAll(ids []graph.NodeID) int {
	degree := 0
	for _, id := range ids {
		degree += len(s.cfg.Graph.Adj[id])
	}
	nodes := make([]ownNode, len(ids))
	procs := make([]int32, degree)
	s.internal = make([]*ownNode, 0, len(ids))
	s.peripheral = make([]*ownNode, 0, len(ids))
	for i, id := range ids {
		node := &nodes[i]
		node.id = id
		n := len(s.cfg.Graph.Adj[id])
		node.shadowFor, procs = procs[:0:n], procs[n:]
		s.place(node, s.cfg.Graph.Adj, s.owner, s.me)
	}
	return degree
}

// resolveAll resolves every owned node's entry indices, carving the nbr
// lists out of one backing array, once the table holds every own and
// shadow entry.
func (s *rankState) resolveAll() {
	lists := [2][]*ownNode{s.internal, s.peripheral}
	total := 0
	for _, list := range lists {
		for _, node := range list {
			total += len(s.cfg.Graph.Adj[node.id])
		}
	}
	backing := make([]int32, total)
	for _, list := range lists {
		for _, node := range list {
			n := len(s.cfg.Graph.Adj[node.id])
			node.nbr, backing = backing[:n:n], backing[n:]
			s.resolve(node)
		}
	}
}

// refRebuildCounts builds the peer list from the peripheral shadowFor
// sets, giving each peer its pool as it is inserted.
func (s *rankState) refRebuildCounts() {
	for i := range s.peers {
		s.peers[i].send = 0
	}
	for _, node := range s.peripheral {
		for _, p := range node.shadowFor {
			s.refPeerFor(int(p)).send++
		}
	}
	s.peers = slices.DeleteFunc(s.peers, func(pe peer) bool { return pe.send == 0 })
}

// refPeerFor returns the entry for processor p, inserting one at its
// place in the ascending order if there is none.
func (s *rankState) refPeerFor(p int) *peer {
	i := 0
	for i < len(s.peers) && s.peers[i].proc < p {
		i++
	}
	if i == len(s.peers) || s.peers[i].proc != p {
		s.peers = slices.Insert(s.peers, i, peer{proc: p})
	}
	return &s.peers[i]
}

// refPlanExchange gathers each peer's receive plan with one scan of every
// peripheral arc, sorts and compacts it, clones the plans to their exact
// length and gives every peer a pair of send buffers.
func (s *rankState) refPlanExchange() {
	arcs, sends := 0, 0
	for _, node := range s.peripheral {
		arcs += len(node.nbr)
		sends += len(node.shadowFor)
	}
	in := make([]int32, 0, arcs)
	out := make([]int32, sends)
	for _, node := range s.peripheral {
		node.out, out = out[:len(node.shadowFor):len(node.shadowFor)], out[len(node.shadowFor):]
		for j, p := range node.shadowFor {
			s.refPeerFor(int(p))
			node.out[j] = int32(slices.IndexFunc(s.peers, func(pe peer) bool { return pe.proc == int(p) }))
		}
	}
	intVals(s).pools = make([][2][]shadowUpdate[IntData], len(s.peers))
	for i := range s.peers {
		start, p := len(in), s.peers[i].proc
		for _, node := range s.peripheral {
			for _, k := range node.nbr {
				if s.owner[s.table.ID(k)] == p {
					in = append(in, k)
				}
			}
		}
		slices.SortFunc(in[start:], func(a, b int32) int { return cmp.Compare(s.table.ID(a), s.table.ID(b)) })
		in = in[:start+len(slices.Compact(in[start:]))]
		s.peers[i].in = in[start:]
	}
	in = slices.Clone(in)
	for i := range s.peers {
		n := len(s.peers[i].in)
		s.peers[i].in, in = in[:n:n], in[n:]
	}
}

// reclassifyAll is the full rebuild localUpdate replaced, kept as the
// reference TestMigrationMatchesReference and FuzzMigrationRound compare
// it with after every round: every owned node placed again in id order,
// every peer recounted, the pools rebuilt and every peer planned again. A
// peer that survives keeps its pair of send buffers, and a new one starts
// with none.
func (s *rankState) reclassifyAll() {
	s.ownLayout()
	adj := s.cfg.Graph.Adj
	all := slices.Concat(s.internal, s.peripheral)
	slices.SortFunc(all, func(a, b *ownNode) int { return cmp.Compare(a.id, b.id) })
	s.internal, s.peripheral = s.internal[:0], s.peripheral[:0]
	for _, node := range all {
		s.place(node, adj, s.owner, s.me)
	}
	vals := intVals(s)
	old, oldPools := slices.Clone(s.peers), vals.pools
	s.rebuildCounts()
	vals.pools = make([][2][]shadowUpdate[IntData], len(s.peers))
	for i, pe := range s.peers {
		if j, ok := slices.BinarySearchFunc(old, pe.proc, func(q peer, p int) int { return cmp.Compare(q.proc, p) }); ok {
			vals.pools[i] = oldPools[j]
		}
	}
	s.planExchange(adj, s.owner, s.me, make([]int32, len(s.peers)))
}
