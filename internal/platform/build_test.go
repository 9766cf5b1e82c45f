package platform

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

// rankShape is what two builds of one rank must agree on, with ids where
// their entry indices differ.
type rankShape struct {
	Me         int
	Speed      float64
	Holds      bool // whether the rank has a nodeState
	Internal   []graph.NodeID
	Peripheral []graph.NodeID
	ShadowFor  [][]int32        // per node, internal ones first
	Nbr        [][]graph.NodeID // per node: the ids of its resolved entries
	Out        [][]int          // per peripheral node: whose buffers each send goes to
	Peers      []peerShape
	Buckets    [][]tableRow
	Pools      int // send-buffer pairs
	Phase      [NumPhases]float64
	WorkTime   float64
	Migrations int
	History    []LoadSample
}

type peerShape struct {
	Proc, Send int
	In         []graph.NodeID
}

type tableRow struct {
	ID       graph.NodeID
	Data     NodeData
	Recent   NodeData
	Owned    bool
	LastCost float64
}

func shape(s *rankState) rankShape {
	sh := rankShape{
		Me: s.me, Speed: s.speed,
		Internal: []graph.NodeID{}, Peripheral: []graph.NodeID{},
		ShadowFor: [][]int32{}, Nbr: [][]graph.NodeID{}, Out: [][]int{},
		Peers: []peerShape{}, Buckets: [][]tableRow{},
		Phase: s.phase, WorkTime: s.workTime, Migrations: s.migrations, History: s.balHist,
	}
	if s.nodeState == nil {
		return sh
	}
	vals := intVals(s)
	sh.Holds, sh.Pools = true, len(vals.pools)
	for _, node := range s.internal {
		sh.Internal = append(sh.Internal, node.id)
	}
	owned := map[int32]bool{}
	for _, node := range s.peripheral {
		sh.Peripheral = append(sh.Peripheral, node.id)
		procs := []int{}
		for _, k := range node.out {
			procs = append(procs, s.peers[k].proc)
		}
		sh.Out = append(sh.Out, procs)
	}
	for _, node := range slices.Concat(s.internal, s.peripheral) {
		owned[node.self] = true
		sh.ShadowFor = append(sh.ShadowFor, append([]int32{}, node.shadowFor...))
		ids := []graph.NodeID{}
		for _, k := range node.nbr {
			ids = append(ids, s.table.ID(k))
		}
		sh.Nbr = append(sh.Nbr, ids)
	}
	for _, pe := range s.peers {
		in := []graph.NodeID{}
		for _, k := range pe.in {
			in = append(in, s.table.ID(k))
		}
		sh.Peers = append(sh.Peers, peerShape{Proc: pe.proc, Send: pe.send, In: in})
	}
	for _, link := range s.table.buckets {
		rows := []tableRow{}
		for ; link != 0; link = s.table.links[link-1].next {
			k := link - 1
			e := vals.ents[k]
			row := tableRow{ID: s.table.ID(k), Data: e.data, Recent: e.mostRecent}
			if owned[k] {
				row.Owned, row.LastCost = true, e.lastCost
			}
			rows = append(rows, row)
		}
		sh.Buckets = append(sh.Buckets, rows)
	}
	return sh
}

// countCalls wraps init so that every call is counted per node.
func countCalls(init func(graph.NodeID) NodeData) (func(graph.NodeID) NodeData, map[graph.NodeID]int) {
	var mu sync.Mutex
	calls := make(map[graph.NodeID]int)
	return func(id graph.NodeID) NodeData {
		mu.Lock()
		calls[id]++
		mu.Unlock()
		return init(id)
	}, calls
}

// assertBuildMatchesReference builds cfg's ranks with buildRanks and with
// the per-rank reference (newRankState, or restoreRankState when cfg
// resumes), and fails unless every rank is the same both ways, every
// built rank keeps the invariants, and InitData was called as often for
// every node.
func assertBuildMatchesReference(t *testing.T, cfg Config) {
	t.Helper()
	c, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	built, ref := *c, *c
	var builtCalls, refCalls map[graph.NodeID]int
	built.InitData, builtCalls = countCalls(c.InitData)
	ref.InitData, refCalls = countCalls(c.InitData)

	ranks, err := buildRanks(&built)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]rankShape, c.Procs)
	var start []int32
	var nodes []graph.NodeID
	if c.ResumeFrom == nil {
		start, nodes = nodesByOwner(c.InitialPartition, c.Procs)
	}
	err = mpi.Run(mpi.Options{Procs: c.Procs, Cost: c.Network}, func(comm *mpi.Comm) error {
		if ref.ResumeFrom != nil {
			s, err := restoreRankState(&ref, comm, ref.ResumeFrom)
			if err != nil {
				return err
			}
			want[s.me] = shape(s)
			return nil
		}
		r := comm.Rank()
		s, err := newRankState(&ref, comm, nodes[start[r]:start[r+1]])
		if err != nil {
			return err
		}
		s.phase[PhaseInit] = 0 // the builder leaves the charge to the rank program
		want[s.me] = shape(s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range ranks {
		if err := ranks[r].checkInvariants(); err != nil {
			t.Fatalf("built rank %d: %v", r, err)
		}
		if got := shape(&ranks[r]); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("rank %d built differently:\n builder   %+v\n reference %+v", r, got, want[r])
		}
	}
	if !maps.Equal(builtCalls, refCalls) {
		t.Fatalf("InitData calls per node: builder %v, reference %v", builtCalls, refCalls)
	}
}

// assertBuildsMatchReference compares the builds of cfg fresh and resumed
// from the middle of a run whose balancer sheds a node from rank 0 to rank
// 1 at every iteration while they share an edge.
func assertBuildsMatchReference(t *testing.T, cfg Config) {
	t.Helper()
	assertBuildMatchesReference(t, cfg)
	cfg.Iterations = 6
	cfg.Balancer = skewedBalancer{}
	cfg.BalanceEvery = 1
	cfg.DisableMigrationGuard = true
	cfg.CheckpointEvery = 3
	var snap *RunSnapshot
	cfg.CheckpointSink = func(s *RunSnapshot) error {
		snap = s
		return nil
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery, cfg.CheckpointSink, cfg.ResumeFrom = 0, nil, snap
	assertBuildMatchesReference(t, cfg)
}

func TestBuildMatchesReference(t *testing.T) {
	grid, err := graph.Grid(6, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := graph.Random(40, 0.12, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Five edges among ten vertices: 5..9 are isolated.
	sparse := graph.New(10)
	// A 4-cycle that rank 0 holds whole, all of it internal, beside a
	// path the other ranks share.
	twoParts := graph.New(12)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}} {
		if err := sparse.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}} {
		if err := twoParts.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	roundRobin := func(n, k int) []int {
		part := make([]int, n)
		for v := range part {
			part[v] = v % k
		}
		return part
	}
	random := func(n, k int) []int {
		rng := rand.New(rand.NewSource(int64(n * k)))
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(k)
		}
		return part
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		procs int
		part  []int
	}{
		{"hex8x8 block", hexGrid(t, 8, 8), 4, blockPart(64, 4)},
		{"hex8x8 round-robin", hexGrid(t, 8, 8), 7, roundRobin(64, 7)},
		{"hex4x8 one rank", hexGrid(t, 4, 8), 1, make([]int, 32)},
		{"moore grid random", grid, 5, random(36, 5)},
		{"random graph", rnd, 6, random(40, 6)},
		{"isolated vertices", sparse, 3, roundRobin(10, 3)},
		{"more ranks than nodes", hexGrid(t, 2, 2), 9, []int{0, 2, 4, 6}},
		{"a rank all internal", twoParts, 3, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(tc.g, tc.procs)
			cfg.InitialPartition = tc.part
			assertBuildsMatchReference(t, cfg)
		})
	}
}

// FuzzBuildRanks draws a small graph and its partition from the bytes:
// data[0] picks the vertex count n, data[1] the processor count (up to 2n,
// so ranks may be empty), the next n bytes the owners and each later pair
// of bytes an edge. Every rank must build as the reference builds it,
// fresh and resumed. Seed corpus in testdata/fuzz.
func FuzzBuildRanks(f *testing.F) {
	f.Add([]byte{7, 2, 0, 0, 0, 1, 1, 1, 2, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Add([]byte{3, 6, 0, 2, 4, 6, 0, 1, 1, 2, 2, 3})
	// procs = 2n: at least half the ranks hold no node and get no node state.
	f.Add([]byte{7, 15, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Add([]byte{5, 11, 1, 3, 5, 7, 9, 11, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 3})
	f.Add([]byte{11, 23, 23, 22, 0, 12, 12, 12, 5, 6, 7, 23, 1, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%24
		procs := 1 + int(data[1])%(2*n)
		data = data[2:]
		part := make([]int, n)
		for v := range part {
			if v < len(data) {
				part[v] = int(data[v]) % procs
			}
		}
		g := graph.New(n)
		for i := n; i+1 < len(data); i += 2 {
			u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v, 1); err != nil {
				t.Fatal(err)
			}
		}
		cfg := baseConfig(g, procs)
		cfg.InitialPartition = part
		assertBuildsMatchReference(t, cfg)
	})
}

// TestBuildRefusesNilInitData holds the refusal of a nil initial value
// before any rank launches: no node function runs, and the error is the
// platform's own, not a rank's.
func TestBuildRefusesNilInitData(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 8), 4)
	cfg.InitData = func(id graph.NodeID) NodeData {
		if id == 21 {
			return nil
		}
		return initID(id)
	}
	ran := false
	cfg.Node = Node(func(graph.NodeID, int, int, IntData, []Neighbor[IntData]) (IntData, float64) {
		ran = true
		return IntData(0), 0
	})
	_, err := Run(cfg)
	if err == nil || err.Error() != "platform: InitData returned nil for node 21" {
		t.Fatalf("got %v, want the nil-InitData refusal for node 21", err)
	}
	if ran {
		t.Fatal("a node function ran: a rank launched before the refusal")
	}
}

// TestResumeRefusesMissingShadowBeforeLaunch removes one shadow from a
// snapshot and expects the builder's named refusal, not a rank's error.
func TestResumeRefusesMissingShadowBeforeLaunch(t *testing.T) {
	cfg := checkpointConfig(t, 4)
	_, _, snaps := runWithSnapshots(t, cfg)
	snap := cloneSnapshot(snaps[2])
	nodes := snap.Ranks[1].Nodes
	i := slices.IndexFunc(nodes, func(ns NodeSnap) bool { return !ns.Owned })
	snap.Ranks[1].Nodes = slices.Delete(nodes, i, i+1)
	cfg.ResumeFrom = snap
	_, err := Run(cfg)
	if err == nil || !strings.HasPrefix(err.Error(), "platform: resume snapshot rank 1 lacks a shadow next to node") {
		t.Fatalf("got %v, want the missing-shadow refusal for rank 1", err)
	}
}

// TestWindowsStayApart migrates nodes into rank 1 until its entry and
// send-buffer windows overflow, on two and on four genuine workers, and
// checks that rank 2, whose windows follow rank 1's in every machine-wide
// array, still holds exactly the values its own nodes computed, and that
// the run's layout, which rank 1 copied its part of before the first
// migration, is as the builder left it. Under -race a write into a
// neighbour's window from another worker is also a report.
//
//	rank 0: a1..a4 and k; each a_i touches m, k and t_i
//	rank 1: m
//	rank 2: q0 - q1 - w (rank 7)
//	ranks 3..6: t1..t4
func TestWindowsStayApart(t *testing.T) {
	const m, k, q0, q1, w = 0, 5, 10, 11, 12
	g := graph.New(13)
	edges := [][2]graph.NodeID{{q0, q1}, {q1, w}}
	for i := graph.NodeID(1); i <= 4; i++ {
		edges = append(edges, [2]graph.NodeID{i, m}, [2]graph.NodeID{i, k}, [2]graph.NodeID{i, i + 5})
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	const iterations = 6
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("pevent workers=%d", workers), func(t *testing.T) {
			cfg := baseConfig(g, 8)
			cfg.InitialPartition = []int{m: 1, 1: 0, 2: 0, 3: 0, 4: 0, k: 0, 6: 3, 7: 4, 8: 5, 9: 6, q0: 2, q1: 2, w: 7}
			cfg.Balancer = skewedBalancer{}
			cfg.DisableMigrationGuard = true
			cfg.Iterations = iterations
			want, err := RunSequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cfg.normalize()
			if err != nil {
				t.Fatal(err)
			}
			ranks, err := buildRanks(c)
			if err != nil {
				t.Fatal(err)
			}
			r1 := &ranks[1]
			v1 := intVals(r1)
			entsCap, poolsCap := cap(v1.ents), cap(v1.pools)

			opts := mpi.Options{Procs: c.Procs, Cost: c.Network, Kernel: mpi.KernelParallelEvent, Workers: workers}
			err = mpi.Run(opts, func(comm *mpi.Comm) error {
				st := &ranks[comm.Rank()]
				st.comm = comm
				for iter := 1; iter <= iterations; iter++ {
					before := st.phase[PhaseCompute]
					if err := st.computeAndCommunicate(iter, 0); err != nil {
						return err
					}
					st.workTime = st.phase[PhaseCompute] - before
					if iter < iterations {
						if _, err := st.loadBalance(iter); err != nil {
							return err
						}
					}
					if err := st.checkInvariants(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			if got := ranks[0].migrations; got != 4 {
				t.Fatalf("%d migrations, want a1..a4 moved to rank 1", got)
			}
			if v1 = intVals(r1); len(v1.ents) <= entsCap || len(v1.pools) <= poolsCap {
				t.Fatalf("rank 1 holds %d entries (window %d) and %d send-buffer pairs (%d): the test does not overflow its windows",
					len(v1.ents), entsCap, len(v1.pools), poolsCap)
			}
			if r1.rankLayout == &c.Layout.parts[1] {
				t.Fatal("rank 1 migrated on the run's shared layout part")
			}
			for r := range ranks {
				st := &ranks[r]
				if st.nodeState == nil {
					continue
				}
				for _, node := range slices.Concat(st.internal, st.peripheral) {
					if got := intVals(st).ents[node.self].data; got != want[node.id] {
						t.Errorf("rank %d holds %v for node %d, the sequential run %v", r, got, node.id, want[node.id])
					}
				}
			}
			fresh, err := NewLayout(g, cfg.InitialPartition, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Layout, fresh) {
				t.Error("the run's layout changed under its migrations")
			}
		})
	}
}

// TestBuildResumesRankHoldingOnlyShadows resumes a snapshot in which rank
// 5, which owns no node, lists a shadow. validateResume accepts that, and
// the builder must give the rank node state for its entry, as the
// reference does: on resume a rank holds nodes when its snapshot lists an
// entry, not only when it owns one.
func TestBuildResumesRankHoldingOnlyShadows(t *testing.T) {
	cfg := baseConfig(hexGrid(t, 4, 6), 6)
	cfg.InitialPartition = blockPart(24, 4)
	_, _, snaps := runWithSnapshots(t, cfg)
	snap := cloneSnapshot(snaps[3])
	snap.Ranks[5].Nodes = []NodeSnap{{ID: 7, Data: snaps[3].Ranks[1].Nodes[0].Data}}
	cfg.ResumeFrom = snap
	c, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := validateResume(c, snap); err != nil {
		t.Fatalf("the snapshot is refused, so the case is not reachable: %v", err)
	}
	assertBuildMatchesReference(t, cfg)
}
