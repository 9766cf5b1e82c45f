package platform

import (
	"reflect"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// TestPeerListSurvivesChurn watches one rank's peer list while migrations
// give it a new neighbouring processor and take an old one away, with a
// third neighbour untouched throughout. The local update after each
// migration round (localUpdate) must insert the new peer in order, drop
// the vanished one, and leave the surviving peer's pooled send buffers in
// place, so the exchanges after a migration send from the same backing
// arrays as the ones before it.
//
//	rank 3      rank 2      rank 0        rank 1
//	w --- z --- y --- x --- a,b --- k     m --- n      (a and b also touch m)
//
// skewedBalancer sheds rank 0's hottest node toward rank 1 on every
// invocation: a, then b, then nothing (k is rank 0's last node). Rank 2
// therefore sees its peers go {0,3} -> {0,1,3} -> {1,3}.
func TestPeerListSurvivesChurn(t *testing.T) {
	const a, b, k, m, n, x, y, z, w = 0, 1, 2, 3, 4, 5, 6, 7, 8
	g := graph.New(9)
	for _, e := range [][2]graph.NodeID{{a, m}, {b, m}, {a, x}, {b, x}, {k, a}, {k, b}, {m, n}, {x, y}, {y, z}, {z, w}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := baseConfig(g, 4)
	cfg.InitialPartition = []int{a: 0, b: 0, k: 0, m: 1, n: 1, x: 2, y: 2, z: 3, w: 3}
	cfg.Node = Node(func(id graph.NodeID, iter, sub int, self IntData, nbrs []Neighbor[IntData]) (IntData, float64) {
		d, _ := mix(0)(id, iter, sub, self, nbrs)
		return d, map[graph.NodeID]float64{a: 3e-4, b: 2e-4}[id] + 1e-4
	})
	cfg.Balancer = skewedBalancer{}
	cfg.DisableMigrationGuard = true
	c, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}

	// What rank 2 holds at the end of each iteration: its peers, and the
	// backing array of each pooled send buffer.
	type pools map[int][2]*shadowUpdate[IntData]
	var procs [][]int
	var held []pools
	const iterations = 7
	ranks, err := buildRanks(c)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(mpi.Options{Procs: c.Procs, Cost: c.Network}, func(comm *mpi.Comm) error {
		st := &ranks[comm.Rank()]
		st.comm = comm
		for iter := 1; iter <= iterations; iter++ {
			before := st.phase[PhaseCompute]
			if err := st.computeAndCommunicate(iter, 0); err != nil {
				return err
			}
			st.workTime = st.phase[PhaseCompute] - before
			if iter%2 == 0 {
				if _, err := st.loadBalance(iter); err != nil {
					return err
				}
			}
			if err := st.checkInvariants(); err != nil {
				return err
			}
			if st.me != 2 {
				continue
			}
			var ps []int
			h := pools{}
			for i, pe := range st.peers {
				ps = append(ps, pe.proc)
				var base [2]*shadowUpdate[IntData]
				for gen, buf := range intVals(st).pools[i] {
					if cap(buf) > 0 {
						base[gen] = &buf[:1][0]
					}
				}
				h[pe.proc] = base
			}
			procs = append(procs, ps)
			held = append(held, h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := [][]int{{0, 3}, {0, 1, 3}, {0, 1, 3}, {1, 3}, {1, 3}, {1, 3}, {1, 3}}
	if !reflect.DeepEqual(procs, want) {
		t.Fatalf("rank 2 peers per iteration = %v, want %v", procs, want)
	}
	// Iteration 2 ends with both pool generations warm and the first
	// migration done; rank 1 joined then, so its buffers warm up by the
	// end of iteration 4, which is also when rank 0 leaves.
	for _, tc := range []struct{ peer, from, to int }{
		{peer: 3, from: 2, to: iterations}, // untouched by both migrations
		{peer: 0, from: 2, to: 3},          // survives the first migration
		{peer: 1, from: 4, to: iterations}, // survives the second
	} {
		warm := held[tc.from-1][tc.peer]
		if warm[0] == nil || warm[1] == nil {
			t.Fatalf("peer %d: pool not warm at iteration %d", tc.peer, tc.from)
		}
		for iter := tc.from + 1; iter <= tc.to; iter++ {
			if got := held[iter-1][tc.peer]; got != warm {
				t.Errorf("peer %d: iteration %d sent from newly allocated buffers; the pool warmed by iteration %d was not carried over", tc.peer, iter, tc.from)
			}
		}
	}
}
