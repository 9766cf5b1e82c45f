package platform

import (
	"fmt"
	"slices"

	"ic2mpi/internal/graph"
)

// buildRanks is the initialization phase of Fig. 6 for the whole machine,
// run by Run before any rank launches: a rank program only adopts its state
// and charges for it. A counting pass sizes one array per kind for the
// whole machine, and a second pass fills each rank's window of every array.
// A window is cut with a full slice expression, so a migration that
// appends past one reallocates instead of writing into the next rank's.
// A fresh run calls InitData once per owned node and once per distinct
// shadow of each rank; a resumed one (Config.ResumeFrom, validated) takes
// every entry from the rank's snapshot.
func buildRanks(c *Config) ([]rankState, error) {
	owner, snap := c.InitialPartition, c.ResumeFrom
	if snap != nil {
		owner = snap.Owner
	}
	adj := c.Graph.Adj
	own := nodesByOwner(owner, c.Procs)

	// mark stamps a node with 1 + the last rank that counted it as a shadow,
	// peerMark and sendMark a processor with 1 + the last rank that counted
	// it as a peer and 1 + the last node that counted it as a destination.
	mark := make([]int32, len(adj))
	peerMark, sendMark := make([]int32, c.Procs), make([]int32, c.Procs)
	arcs, remote, shadows, peers, sends, widest := 0, 0, 0, 0, 0, 0
	for r, mine := range own {
		maxDegree := 0
		for _, v := range mine {
			arcs += len(adj[v])
			maxDegree = max(maxDegree, len(adj[v]))
			for _, u := range adj[v] {
				p := owner[u]
				if p == r {
					continue
				}
				remote++
				if sendMark[p] != int32(v)+1 {
					sendMark[p] = int32(v) + 1
					sends++
				}
				if peerMark[p] != int32(r)+1 {
					peerMark[p] = int32(r) + 1
					peers++
				}
				if mark[u] != int32(r)+1 {
					mark[u] = int32(r) + 1
					shadows++
				}
			}
		}
		widest += maxDegree
	}
	entries := len(adj) + shadows
	if snap != nil {
		entries = 0
		for _, rs := range snap.Ranks {
			entries += len(rs.Nodes)
		}
	}

	// One array per kind. A table has a bucket and a chain link per entry
	// it starts with, and one spare link.
	ranks := make([]rankState, c.Procs)
	nodes := make([]ownNode, len(adj))
	internals := make([]*ownNode, len(adj))
	peripherals := make([]*ownNode, len(adj))
	procs := make([]int32, arcs)
	nbrs := make([]*entry, arcs)
	ents := make([]entry, entries)
	buckets := make([]*hashNode, entries+c.Procs)
	links := make([]hashNode, entries+c.Procs)
	peerArr := make([]peer, peers)
	pools := make([][2][]shadowUpdate, peers)
	bufs := make([]shadowUpdate, 2*sends)
	in := make([]*entry, remote)
	out := make([]*[2][]shadowUpdate, sends)
	scratch := make([]Neighbor, widest)

	// at[u] is 1 + the index in ents of node u's entry, the filled rank's if
	// above that rank's first index. count is planExchange's scratch.
	at, count := mark, peerMark
	clear(at)
	var nodeAt, arcAt, entAt, linkAt, peerAt, bufAt, inAt, outAt, scratchAt int
	add := func(id graph.NodeID, d NodeData) {
		ents[entAt] = entry{id: id, data: d, mostRecent: d}
		entAt++
		at[id] = int32(entAt)
	}
	initData := func(id graph.NodeID) error {
		d := c.InitData(id)
		if d == nil {
			return fmt.Errorf("platform: InitData returned nil for node %d", id)
		}
		add(id, d)
		return nil
	}
	for r, mine := range own {
		s := &ranks[r]
		*s = rankState{cfg: c, me: r, speed: c.Network.Speed(r), owner: owner, ownerShared: true}

		// Node records, placed by the owner map.
		end := nodeAt + len(mine)
		recs := nodes[nodeAt:end]
		s.internal, s.peripheral = internals[nodeAt:nodeAt:end], peripherals[nodeAt:nodeAt:end]
		nodeAt = end
		maxDegree := 0
		for k, v := range mine {
			node, d := &recs[k], len(adj[v])
			node.id = v
			node.shadowFor, node.nbr = procs[arcAt:arcAt:arcAt+d], nbrs[arcAt:arcAt+d:arcAt+d]
			arcAt += d
			maxDegree = max(maxDegree, d)
			s.place(node)
		}
		s.nbrScratch = scratch[scratchAt : scratchAt+maxDegree : scratchAt+maxDegree]
		scratchAt += maxDegree

		// Data entries and the table over them.
		first := entAt
		if snap == nil {
			for _, v := range mine {
				if err := initData(v); err != nil {
					return nil, err
				}
			}
			for _, node := range s.peripheral {
				for _, u := range adj[node.id] {
					if owner[u] != r && int(at[u]) <= first {
						if err := initData(u); err != nil {
							return nil, err
						}
					}
				}
			}
		} else {
			for _, ns := range snap.Ranks[r].Nodes {
				add(ns.ID, ns.Data)
			}
		}
		k := entAt - first + 1
		s.table = HashTable{buckets: buckets[linkAt : linkAt+k : linkAt+k], slab: links[linkAt : linkAt : linkAt+k]}
		linkAt += k
		for i := first; i < entAt; i++ {
			if err := s.table.Insert(&ents[i]); err != nil {
				return nil, err
			}
		}

		// Entry pointers, through at rather than the table.
		for k := range recs {
			node := &recs[k]
			node.self = &ents[at[node.id]-1]
			node.self.own = node
			for i, u := range adj[node.id] {
				if int(at[u]) <= first {
					return nil, fmt.Errorf("platform: resume snapshot rank %d lacks a shadow next to node %d", r, node.id)
				}
				node.nbr[i] = &ents[at[u]-1]
			}
		}

		// Peers, each with its pool and both generations of its send buffer.
		s.peers = peerArr[peerAt:peerAt]
		s.rebuildCounts()
		s.peers = slices.Clip(s.peers)
		for i := range s.peers {
			pe := &s.peers[i]
			pe.pool = &pools[peerAt+i]
			n := pe.send
			pe.pool[0], pe.pool[1] = bufs[bufAt:bufAt:bufAt+n], bufs[bufAt+n:bufAt+n:bufAt+2*n]
			bufAt += 2 * n
		}
		peerAt += len(s.peers)

		// The plans, in what is left of the plan arrays.
		s.planIn, s.planOut = in[inAt:inAt], out[outAt:outAt]
		s.planExchange(count[:len(s.peers)])
		s.planIn, s.planOut = slices.Clip(s.planIn), slices.Clip(s.planOut)
		inAt += len(s.planIn)
		outAt += len(s.planOut)

		if snap != nil {
			rs := &snap.Ranks[r]
			for i, ns := range rs.Nodes {
				if ns.Owned {
					ents[first+i].own.lastCost = ns.LastCost
				}
			}
			s.phase = rs.Phase
			s.workTime = rs.WorkTime
			s.migrations = rs.Migrations
			s.balHist = slices.Clone(rs.History)
		}
	}
	return ranks, nil
}
