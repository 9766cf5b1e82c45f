package platform

import (
	"fmt"
	"slices"
	"sync"
)

// buildRanks is the initialization phase of Fig. 6 for the whole machine,
// run by Run before any rank launches: a rank program only adopts its state
// and charges for it. The structure comes from the run's layout
// (Config.Layout, shared with the other runs of its partition), or, resumed,
// from a private layout of the snapshot's owner map and entries. What is
// left is the run's values, one array per kind for the whole machine, cut
// into each rank's windows with full slice expressions, so that a rank that
// appends past its window reallocates instead of writing into the next
// rank's: the data entries, two generations of send buffers per peer and
// the neighbour list. A fresh run calls InitData once per entry, that is
// per owned node and per distinct shadow of each rank; a resumed one
// (Config.ResumeFrom, validated) takes every entry from the rank's
// snapshot. The rank records come from rankSlabs; Run hands them back.
func buildRanks(c *Config) ([]rankState, error) {
	lay, owner, snap := c.Layout, c.InitialPartition, c.ResumeFrom
	if snap != nil {
		owner = snap.Owner
		var err error
		if lay, err = buildLayout(c.Graph, owner, c.Procs, snap); err != nil {
			return nil, err
		}
	}
	ranks := takeRanks(c.Procs)
	states := make([]nodeState, len(lay.held))
	ents := make([]entry, lay.entries)
	pools := make([][2][]shadowUpdate, lay.peers)
	bufs := make([]shadowUpdate, 2*lay.sends)
	scratch := make([]Neighbor, lay.width)
	h := 0 // the next part, and node state, to hand out
	for r := range ranks {
		s := &ranks[r]
		*s = rankState{cfg: c, me: r, speed: c.Network.Speed(r), owner: owner, ownerShared: true}
		if snap != nil {
			rs := &snap.Ranks[r]
			s.phase = rs.Phase
			s.workTime = rs.WorkTime
			s.migrations = rs.Migrations
			s.balHist = slices.Clone(rs.History)
		}
		if h == len(lay.held) || lay.held[h] != int32(r) {
			continue
		}
		l, n := &lay.parts[h], &states[h]
		h++
		s.nodeState = n
		n.rankLayout, n.layoutShared = l, snap == nil // a resumed run's is its own
		n.ents = take(&ents, len(l.table.links))
		if snap == nil {
			for i := range n.ents {
				id := l.table.ID(int32(i))
				d := c.InitData(id)
				if d == nil {
					return nil, fmt.Errorf("platform: InitData returned nil for node %d", id)
				}
				n.ents[i] = entry{id: id, data: d, mostRecent: d}
			}
		} else {
			for i, ns := range snap.Ranks[r].Nodes {
				n.ents[i] = entry{id: ns.ID, data: ns.Data, mostRecent: ns.Data}
				if ns.Owned {
					n.ents[i].lastCost = ns.LastCost
				}
			}
		}

		// Both generations of each peer's send buffer.
		n.pools = take(&pools, len(l.peers))
		for i, pe := range l.peers {
			n.pools[i] = [2][]shadowUpdate{take(&bufs, pe.send)[:0], take(&bufs, pe.send)[:0]}
		}
		n.nbrScratch = take(&scratch, l.width)
	}
	return ranks, nil
}

// rankSlabs recycles the rank-record slab of a run for the next: a run of
// 4096 ranks that mostly hold no node would otherwise allocate 0.7 MB of
// records and drop them. Nothing a Result, a snapshot or a trace keeps
// points into a slab, and a pooled one is zero, so it holds nothing of its
// run.
var rankSlabs sync.Pool // of *[]rankState

// takeRanks returns procs rank records, a pooled slab's when it is large
// enough. They are zero: the rest of a slab was cleared with it.
func takeRanks(procs int) []rankState {
	if p, _ := rankSlabs.Get().(*[]rankState); p != nil && cap(*p) >= procs {
		return (*p)[:procs]
	}
	return make([]rankState, procs)
}

// putRanks clears ranks and pools their slab.
func putRanks(ranks []rankState) {
	clear(ranks)
	rankSlabs.Put(&ranks)
}
