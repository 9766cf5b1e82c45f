package platform

import (
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
	}
	if err := c.Node.build(c, lay, ranks); err != nil {
		return nil, err
	}
	return ranks, nil
}

// build gives each rank that holds nodes its node state, the part of
// buildRanks compiled for the node function's type: every initial value is
// asserted to T once, here.
func (f nodeFunc[T]) build(c *Config, lay *Layout, ranks []rankState) error {
	snap, nillable := c.ResumeFrom, nillable[T]()
	states := make([]struct {
		n nodeState
		v values[T]
	}, len(lay.held))
	ents := make([]entry[T], lay.entries)
	pools := make([][2][]shadowUpdate[T], lay.peers)
	bufs := make([]shadowUpdate[T], 2*lay.sends)
	scratch := make([]Neighbor[T], lay.width)
	for h, r := range lay.held {
		n, v := &states[h].n, &states[h].v
		*n = nodeState{rankLayout: &lay.parts[h], layoutShared: snap == nil, vals: v} // a resumed run's layout is its own
		ranks[r].nodeState = n
		*v = values[T]{node: f, nillable: nillable, ents: take(&ents, len(n.table.links))}
		if snap == nil {
			for i := range v.ents {
				id := n.table.ID(int32(i))
				d, err := typed[T](c.InitData(id), id, "InitData returned")
				if err != nil {
					return err
				}
				v.ents[i] = entry[T]{id: id, data: d, mostRecent: d}
			}
		} else {
			for i, ns := range snap.Ranks[r].Nodes {
				d, err := typed[T](ns.Data, ns.ID, "resume snapshot holds")
				if err != nil {
					return err
				}
				v.ents[i] = entry[T]{id: ns.ID, data: d, mostRecent: d}
				if ns.Owned {
					v.ents[i].lastCost = ns.LastCost
				}
			}
		}

		// Both generations of each peer's send buffer.
		v.pools = take(&pools, len(n.peers))
		for i, pe := range n.peers {
			v.pools[i] = [2][]shadowUpdate[T]{take(&bufs, pe.send)[:0], take(&bufs, pe.send)[:0]}
		}
		v.nbrScratch = take(&scratch, n.width)
	}
	return nil
}

// empty returns the values of a rank whose first node arrives by migration.
func (f nodeFunc[T]) empty() rankValues {
	return &values[T]{node: f, nillable: nillable[T]()}
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
