package platform

import (
	"strings"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// forged is the data value every forged update carries, so that a store
// from a refused buffer shows up in rank 1's table.
const forged = IntData(-1)

// recvForged runs a two-rank exchange on a 2x4 hex grid (rank 0 owns row
// 0, rank 1 row 1) in which rank 0 packs the buffer it owes rank 1 the
// way computeNode does, lets forge tamper with it, and sends the result
// in place of its real exchange. It returns the error rank 1's
// recvShadows failed the run with, after checking that no entry of rank
// 1's table holds a forged value.
func recvForged(t *testing.T, forge func(buf []shadowUpdate) any) error {
	t.Helper()
	cfg := baseConfig(hexGrid(t, 2, 4), 2)
	c, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := buildRanks(c)
	if err != nil {
		t.Fatal(err)
	}
	var written []graph.NodeID
	runErr := mpi.Run(mpi.Options{Procs: c.Procs, Cost: c.Network}, func(comm *mpi.Comm) error {
		st := &ranks[comm.Rank()]
		st.comm = comm
		if st.me == 0 {
			var buf []shadowUpdate
			for _, node := range st.peripheral {
				for _, p := range node.shadowFor {
					if p == 1 {
						buf = append(buf, shadowUpdate{id: node.id, data: forged})
					}
				}
			}
			if len(buf) < 2 {
				t.Errorf("rank 0 owes rank 1 %d updates; the forgeries need two", len(buf))
			}
			return comm.Isend(1, tagShadow(0), forge(buf), updateBytes(buf))
		}
		err := st.recvShadows(0)
		for v := range c.Graph.Adj {
			if k := st.table.Lookup(graph.NodeID(v)); k >= 0 && (st.ents[k].data == forged || st.ents[k].mostRecent == forged) {
				written = append(written, graph.NodeID(v))
			}
		}
		return err
	})
	if len(written) > 0 {
		t.Errorf("a refused buffer wrote nodes %v", written)
	}
	if runErr == nil {
		t.Fatal("recvShadows accepted a forged buffer")
	}
	return runErr
}

// TestRecvShadowsRefusesWrongLength hands rank 1 one update too few.
func TestRecvShadowsRefusesWrongLength(t *testing.T) {
	err := recvForged(t, func(buf []shadowUpdate) any {
		short := buf[:len(buf)-1]
		return &short
	})
	if !strings.Contains(err.Error(), "expected") || !strings.Contains(err.Error(), "received") {
		t.Errorf("got %v, want the received-count error", err)
	}
}

// TestRecvShadowsRefusesWrongPayloadType hands rank 1 the buffer itself
// where the exchange sends a pointer to it.
func TestRecvShadowsRefusesWrongPayloadType(t *testing.T) {
	err := recvForged(t, func(buf []shadowUpdate) any { return buf })
	if !strings.Contains(err.Error(), "unexpected payload []platform.shadowUpdate") {
		t.Errorf("got %v, want the unexpected-payload error", err)
	}
}

// TestRecvShadowsRefusesSwappedUpdates hands rank 1 the right updates with
// the first two swapped: each is for a node rank 1 holds a shadow of, but
// not the one due at its position.
func TestRecvShadowsRefusesSwappedUpdates(t *testing.T) {
	err := recvForged(t, func(buf []shadowUpdate) any {
		buf[0], buf[1] = buf[1], buf[0]
		return &buf
	})
	if !strings.Contains(err.Error(), "update 0 from proc 0 is for node 1, expected node 0") {
		t.Errorf("got %v, want the out-of-order error", err)
	}
}

// TestRecvShadowsRefusesUnownedNode hands rank 1 an update for node 4,
// which rank 1 owns itself, in the first slot.
func TestRecvShadowsRefusesUnownedNode(t *testing.T) {
	err := recvForged(t, func(buf []shadowUpdate) any {
		buf[0].id = 4
		return &buf
	})
	if !strings.Contains(err.Error(), "update 0 from proc 0 is for node 4, expected node 0") {
		t.Errorf("got %v, want the out-of-order error", err)
	}
}
