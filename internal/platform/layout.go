package platform

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/partition"
)

// Layout is what the initialization phase of Fig. 6 derives from the graph,
// the node-to-processor map and the processor count alone: every rank's
// node records (Fig. 7), internal/peripheral split, hash table, peers and
// plans. It indexes a rank's entries in the array each run gives the rank
// and holds no run's values, so concurrent runs of one partition share it
// (scenario.Inputs builds it next to the partition). A rank copies its part
// before its first structural write (rankState.ownLayout), as it copies
// the owner map (ownOwner); a resumed run builds its own.
type Layout struct {
	graph *graph.Graph
	owner []int
	procs int
	// parts[i] is the part of rank held[i], ascending: only a rank that
	// holds nodes has one, so a layout's size does not grow with procs.
	held  []int32
	parts []rankLayout
	// What sizes a run's arrays: entries, peers, send-plan slots (the
	// peers' send counts) and rank widths, summed.
	entries, peers, sends, width int
}

// rankLayout is one rank's part of a Layout.
type rankLayout struct {
	internal   []*ownNode // ascending by id between migration rounds
	peripheral []*ownNode // the same

	table HashTable // own + shadow entries

	// planIn and planOut back the receive and send plans (planExchange).
	planIn  []int32
	planOut []int32

	// peers is the exchange bookkeeping: one entry per processor this rank
	// shares a graph edge with, in strictly ascending proc order. A rank in
	// a P-processor world talks to O(degree) neighbours, so this is the
	// whole per-rank exchange state at every P. Every exchange loop ranges
	// over it, and the ascending order is what pins the send/receive
	// sequence — and with it the virtual timeline.
	peers []peer

	width int // the largest degree of the rank's nodes at start-up
}

// ownNode is the per-node bookkeeping record of Fig. 7 (struct own_node):
// node kind, the neighbor list, and the set of processors for which this
// node is a shadow ("by analyzing this array for each of its peripheral
// nodes, a processor exactly knows the neighboring processors it needs to
// communicate, and what to communicate").
type ownNode struct {
	id graph.NodeID
	// self is the index of the node's own entry and nbr[i] that of its
	// i-th neighbor in the application graph, Graph.Adj[id][i], found once
	// when the node joins the rank (buildLayout, or resolve on migration).
	// A rank never removes an entry from its table, so the indices stay
	// equal to what a look-up would return, and the compute loop does none.
	self int32
	// shadowFor is empty exactly for internal nodes; a clone's has room
	// for one processor per neighbour, a layout's for what it names.
	shadowFor []int32 // sorted processor ids
	nbr       []int32
	// out is the send plan (planExchange): the index in peers of each
	// processor in shadowFor, in that order. Nil for internal nodes.
	out []int32
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
	in   []int32
}

// NewLayout checks g and the node-to-processor map owner, the one check of
// a run's graph and initial partition, and builds the layout of a run of g
// on procs processors starting from owner.
func NewLayout(g *graph.Graph, owner []int, procs int) (*Layout, error) {
	if g == nil {
		return nil, fmt.Errorf("platform: Config.Graph is required")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("platform: invalid graph: %w", err)
	}
	if err := partition.Validate(g, owner, procs); err != nil {
		return nil, fmt.Errorf("platform: InitialPartition: %w", err)
	}
	return buildLayout(g, owner, procs, nil)
}

// builtFor reports whether l is the layout of c's graph, initial partition
// and processor count: the very graph and map it was built from.
func (l *Layout) builtFor(c *Config) bool {
	return l.graph == c.Graph && l.procs == c.Procs && len(l.owner) == len(c.InitialPartition) &&
		(len(l.owner) == 0 || &l.owner[0] == &c.InitialPartition[0])
}

// buildLayout builds every rank's part of the layout of owner, which the
// caller has checked. A counting pass sizes one array per kind for the
// whole machine, and a second pass cuts each rank's window of every array
// (take). Only a rank that holds nodes gets a part: one that owns a node,
// or, resumed from snap, one whose snapshot lists an entry.
//
// A fresh rank's entries are its owned nodes in id order, then each
// distinct shadow as its peripheral nodes' arcs first reach it; a resumed
// rank's are its snapshot's.
func buildLayout(g *graph.Graph, owner []int, procs int, snap *RunSnapshot) (*Layout, error) {
	adj := g.Adj
	start, byOwner := nodesByOwner(owner, procs)
	holds := func(r int) bool { return start[r] < start[r+1] || snap != nil && len(snap.Ranks[r].Nodes) > 0 }

	// mark stamps a node with 1 + the last rank that counted it as a shadow,
	// peerMark and sendMark a processor with 1 + the last rank that counted
	// it as a peer and 1 + the last node that counted it as a destination.
	temp := make([]int32, len(adj)+2*procs)
	mark, peerMark, sendMark := temp[:len(adj)], temp[len(adj):len(adj)+procs], temp[len(adj)+procs:]
	lay := &Layout{graph: g, owner: owner, procs: procs}
	arcs, remote, holders := 0, 0, 0
	for r := range procs {
		mine, maxDegree, shadows := byOwner[start[r]:start[r+1]], 0, 0
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
					lay.sends++
				}
				if peerMark[p] != int32(r)+1 {
					peerMark[p] = int32(r) + 1
					lay.peers++
				}
				if mark[u] != int32(r)+1 {
					mark[u] = int32(r) + 1
					shadows++
				}
			}
		}
		if snap != nil {
			shadows = len(snap.Ranks[r].Nodes) - len(mine)
		}
		if holds(r) {
			holders++
			lay.entries += len(mine) + shadows
			lay.width += maxDegree
		}
	}

	// One array per kind, the int32 kinds in one. A table has a bucket per
	// entry it starts with, and one more.
	lay.parts = make([]rankLayout, holders)
	nodes := make([]ownNode, len(adj))
	lists := make([]*ownNode, 2*len(adj))
	ints := make([]int32, holders+arcs+lay.entries+holders+remote+2*lay.sends)
	lay.held = take(&ints, holders)[:0]
	shadowFor, nbrs, buckets := take(&ints, lay.sends), take(&ints, arcs), take(&ints, lay.entries+holders)
	in, out := take(&ints, remote), ints
	links := make([]hashNode, lay.entries)
	peerArr := make([]peer, lay.peers)

	// at[u] is 1 + the machine-wide index of node u's entry, the filled
	// rank's if above that rank's first index. count is planExchange's
	// scratch.
	at, count := mark, peerMark
	clear(at)
	entAt := 0
	for r := range procs {
		if !holds(r) {
			continue
		}
		l := &lay.parts[len(lay.held)]
		lay.held = append(lay.held, int32(r))
		mine := byOwner[start[r]:start[r+1]]

		// Node records, placed by the owner map. A node's shadowFor set
		// fills what is left of its array, and keeps what it used.
		recs := take(&nodes, len(mine))
		l.internal, l.peripheral = take(&lists, len(mine))[:0], take(&lists, len(mine))[:0]
		for k, v := range mine {
			node, d := &recs[k], len(adj[v])
			node.id, node.shadowFor, node.nbr = v, shadowFor[:0], take(&nbrs, d)
			l.width = max(l.width, d)
			l.place(node, adj, owner, r)
			node.shadowFor = take(&shadowFor, len(node.shadowFor))
		}

		// The entries, each id once (a snapshot's ascend), then the table
		// over them.
		first := entAt
		ids := links[:0]
		add := func(id graph.NodeID) {
			ids = append(ids, hashNode{id: id})
			entAt++
			at[id] = int32(entAt)
		}
		if snap == nil {
			for _, v := range mine {
				add(v)
			}
			for _, node := range l.peripheral {
				for _, u := range adj[node.id] {
					if owner[u] != r && int(at[u]) <= first {
						add(u)
					}
				}
			}
		} else {
			for _, ns := range snap.Ranks[r].Nodes {
				add(ns.ID)
			}
		}
		n := len(ids)
		l.table = HashTable{buckets: take(&buckets, n+1), links: take(&links, n)}
		for k := range n {
			l.table.link(int32(k))
		}

		// Entry indices, through at rather than the table.
		for k := range recs {
			node := &recs[k]
			node.self = at[node.id] - 1 - int32(first)
			for i, u := range adj[node.id] {
				if int(at[u]) <= first {
					return nil, fmt.Errorf("platform: resume snapshot rank %d lacks a shadow next to node %d", r, node.id)
				}
				node.nbr[i] = at[u] - 1 - int32(first)
			}
		}

		// Peers, then the plans, in what is left of the peer and plan arrays.
		l.peers = peerArr[:0]
		l.rebuildCounts()
		l.peers = take(&peerArr, len(l.peers))
		l.planIn, l.planOut = in[:0], out[:0]
		l.planExchange(adj, owner, r, count[:len(l.peers)])
		l.planIn, l.planOut = take(&in, len(l.planIn)), take(&out, len(l.planOut))
	}
	return lay, nil
}

// take cuts the first n elements off *s, with a full slice expression.
func take[T any](s *[]T, n int) []T {
	w := (*s)[:n:n]
	*s = (*s)[n:]
	return w
}

// nodesByOwner inverts a node-to-owner map into a compressed index:
// processor p's nodes are nodes[start[p]:start[p+1]], ascending. The
// builder makes it once so that no rank has to scan the whole map for its
// own nodes.
func nodesByOwner(owner []int, procs int) (start []int32, nodes []graph.NodeID) {
	start = make([]int32, procs+1)
	for _, p := range owner {
		start[p+1]++
	}
	for p := 0; p < procs; p++ {
		start[p+1] += start[p]
	}
	nodes = make([]graph.NodeID, len(owner))
	for v, p := range owner {
		nodes[start[p]] = graph.NodeID(v)
		start[p]++
	}
	// start[p] is now where p+1's nodes begin.
	copy(start[1:], start)
	start[0] = 0
	return start, nodes
}

// place classifies node against the owner map, for rank me, and appends
// it to the internal or the peripheral list.
func (l *rankLayout) place(node *ownNode, adj [][]graph.NodeID, owner []int, me int) {
	l.classify(node, adj, owner, me)
	if len(node.shadowFor) > 0 {
		l.peripheral = append(l.peripheral, node)
	} else {
		l.internal = append(l.internal, node)
	}
}

// classify recomputes a node's shadowFor set from the owner map, which
// makes the node peripheral when it is not empty. The send plan derived
// from the old set is dropped; planExchange builds the new one.
func (l *rankLayout) classify(node *ownNode, adj [][]graph.NodeID, owner []int, me int) {
	node.shadowFor = node.shadowFor[:0]
	node.out = nil
	for _, u := range adj[node.id] {
		p := owner[u]
		if p == me {
			continue
		}
		if !slices.Contains(node.shadowFor, int32(p)) {
			node.shadowFor = append(node.shadowFor, int32(p))
		}
	}
	slices.Sort(node.shadowFor)
}

// rebuildCounts recomputes the peer list from the peripheral shadowFor
// sets: one peer per processor they name (by symmetry, the owners of my
// shadows), with send counting the nodes that name it. Entries are edited
// in place, and one left without a shared edge is dropped.
func (l *rankLayout) rebuildCounts() {
	for i := range l.peers {
		l.peers[i].send = 0
	}
	for _, node := range l.peripheral {
		for _, p := range node.shadowFor {
			l.peerFor(int(p)).send++
		}
	}
	l.peers = slices.DeleteFunc(l.peers, func(pe peer) bool { return pe.send == 0 })
}

// planExchange builds the receive and send plans of the current partition
// epoch from the resolved indices, with no look-up, at start-up, on resume
// and in reclassifyAll; rounds only execute them until the next ownership
// change. The plans fill planIn and planOut where they fit and new arrays
// where they do not. count is scratch with one slot per peer.
//
// A peer packs its peripheral nodes in ascending id order, so its receive
// plan is the shadows it owns, sorted and each once. A counting pass by
// peer gives each peer a segment of planIn with a slot per arc to one of
// its nodes; filled in node order, a segment arrives nearly sorted, and is
// sorted, compacted and moved down against the segment before it.
func (l *rankLayout) planExchange(adj [][]graph.NodeID, owner []int, me int, count []int32) {
	clear(count)
	sends := 0
	for _, node := range l.peripheral {
		sends += len(node.shadowFor)
		for _, u := range adj[node.id] {
			if p := owner[u]; p != me {
				count[l.peerIndex(p)]++
			}
		}
	}
	if cap(l.planOut) < sends {
		l.planOut = make([]int32, sends)
	}
	l.planOut = l.planOut[:sends]
	out := l.planOut
	for _, node := range l.peripheral {
		n := len(node.shadowFor)
		node.out, out = out[:n:n], out[n:]
		for j, p := range node.shadowFor {
			node.out[j] = int32(l.peerIndex(int(p)))
		}
	}

	start := int32(0)
	for k, n := range count {
		count[k], start = start, start+n
	}
	if cap(l.planIn) < int(start) {
		l.planIn = make([]int32, start)
	}
	l.planIn = l.planIn[:start]
	in := l.planIn
	for _, node := range l.peripheral {
		for i, u := range adj[node.id] {
			if p := owner[u]; p != me {
				k := l.peerIndex(p)
				in[count[k]] = node.nbr[i]
				count[k]++
			}
		}
	}
	// count[k] is now the end of peer k's segment.
	lo, n := 0, 0
	for k := range l.peers {
		seg := in[lo:count[k]]
		lo = int(count[k])
		slices.SortFunc(seg, func(a, b int32) int { return cmp.Compare(l.table.ID(a), l.table.ID(b)) })
		m := copy(in[n:], slices.Compact(seg))
		l.peers[k].in = in[n : n+m : n+m]
		n += m
	}
}

// peerIndex returns the position of processor p in the peer list, or the
// position it would be inserted at.
func (l *rankLayout) peerIndex(p int) int {
	return sort.Search(len(l.peers), func(i int) bool { return l.peers[i].proc >= p })
}

// peerFor returns the entry for processor p, inserting an empty one at its
// place in the ascending order if there is none. The pointer is valid
// until the next insertion.
func (l *rankLayout) peerFor(p int) *peer {
	i := l.peerIndex(p)
	if i == len(l.peers) || l.peers[i].proc != p {
		l.peers = slices.Insert(l.peers, i, peer{proc: p})
	}
	return &l.peers[i]
}

// clone copies what a migration writes: node records, shadowFor sets (with
// room for one processor per neighbour), node lists, table and peers. The
// nbr indices, and the plans until planExchange remakes them, are only
// read, so the copy shares them.
func (l *rankLayout) clone(adj [][]graph.NodeID) *rankLayout {
	table := HashTable{buckets: slices.Clone(l.table.buckets), links: slices.Clone(l.table.links)}
	c := &rankLayout{table: table, peers: slices.Clone(l.peers), width: l.width}
	copyList := func(list []*ownNode) []*ownNode {
		out := make([]*ownNode, len(list))
		for i, node := range list {
			cp := *node
			cp.shadowFor = append(make([]int32, 0, len(adj[node.id])), node.shadowFor...)
			out[i] = &cp
		}
		return out
	}
	c.internal, c.peripheral = copyList(l.internal), copyList(l.peripheral)
	return c
}
