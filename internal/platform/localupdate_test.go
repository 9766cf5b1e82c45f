package platform

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/trace"
)

// checkedRound is migrateRound with the reference check and without the
// trace record: after the commit, a rank the round touched must be left by
// localUpdate as reclassifyAll leaves a clone of it. It sends and waits as
// migrateRound does, so the run's timeline is the same.
func (s *rankState) checkedRound(round []migration) error {
	for _, m := range round {
		if err := s.executeMigration(m); err != nil {
			return err
		}
	}
	if s.commitRound(round) {
		ref, vals := *s, *intVals(s)
		vals.pools = slices.Clone(vals.pools)
		ref.nodeState = &nodeState{rankLayout: s.rankLayout.clone(s.cfg.Graph.Adj), vals: &vals}
		ref.reclassifyAll()
		s.localUpdate(round)
		if err := sameAsReference(&ref, s); err != nil {
			return fmt.Errorf("rank %d after round %v: %w", s.me, round, err)
		}
	}
	return s.comm.Barrier()
}

// sameAsReference compares a rank's state after localUpdate with the
// reference's: node lists, shadowFor sets, send plans, peers with their
// counts and receive plans (shape), and each peer's pair of send buffers,
// which must be the very arrays the reference kept for it (a surviving
// peer's) or none (a new one's).
func sameAsReference(want, got *rankState) error {
	if w, g := shape(want), shape(got); !reflect.DeepEqual(w, g) {
		return fmt.Errorf("local update\n got %+v\nwant %+v", g, w)
	}
	base := func(b []shadowUpdate[IntData]) *shadowUpdate[IntData] {
		if cap(b) == 0 {
			return nil
		}
		return &b[:1][0]
	}
	wp, gp := intVals(want).pools, intVals(got).pools
	for k := range wp {
		for gen, w := range wp[k] {
			if g := gp[k][gen]; base(g) != base(w) || cap(g) != cap(w) {
				return fmt.Errorf("peer %d: send buffer generation %d is not the one the reference kept", want.peers[k].proc, gen)
			}
		}
	}
	return nil
}

// roundPlan builds legal migration rounds move by move, by iteration, as
// Table 1 and migrateOut require: within a round no processor is busy
// twice, idle twice or both, and each moved node belongs, at the round's
// start, to its busy processor, which owns another node too, and has a
// neighbour on another processor there.
type roundPlan struct {
	g            *graph.Graph
	owner, start []int // after every move so far; at the open round's start
	busy, idle   map[int]bool
	iter         int                   // the open round's iteration
	moves        map[int][][]migration // the rounds by iteration
}

func newRoundPlan(g *graph.Graph, owner []int) *roundPlan {
	return &roundPlan{g: g, owner: slices.Clone(owner), start: slices.Clone(owner),
		busy: map[int]bool{}, idle: map[int]bool{}, moves: map[int][][]migration{}}
}

// open starts a new round at the end of iteration iter.
func (r *roundPlan) open(iter int) {
	copy(r.start, r.owner)
	clear(r.busy)
	clear(r.idle)
	r.iter = iter
	r.moves[iter] = append(r.moves[iter], nil)
}

// fits reports whether m may join the round open at iteration iter.
func (r *roundPlan) fits(iter int, m migration) bool {
	if iter != r.iter || r.moves[iter] == nil || m.from == m.to || r.start[m.node] != m.from ||
		r.busy[m.from] || r.idle[m.from] || r.busy[m.to] || r.idle[m.to] {
		return false
	}
	owned := 0
	for _, p := range r.start {
		if p == m.from {
			owned++
		}
	}
	return owned > 1 && slices.ContainsFunc(r.g.Adj[m.node], func(u graph.NodeID) bool { return r.start[u] != m.from })
}

func (r *roundPlan) add(m migration) {
	rounds := r.moves[r.iter]
	rounds[len(rounds)-1] = append(rounds[len(rounds)-1], m)
	r.busy[m.from], r.idle[m.to] = true, true
	r.owner[m.node] = m.to
}

// TestMigrationMatchesReference replays the migrations of balanced runs on
// the imbalance scenario's graph, 64 random nodes of average degree 4 at 4,
// 8 and 16 processors under the package's test balancers (the 25 % rule,
// the skewed one and a scripted plan of many pairs), as legal rounds,
// and holds every touched rank after every round to reclassifyAll on a
// clone (checkedRound), with invariants checked after every iteration.
// The replay must end on the run's partition with the sequential data, and
// the rounds must include ones that move several nodes at once.
func TestMigrationMatchesReference(t *testing.T) {
	g, err := graph.Random(64, 4.0/64, 6401)
	if err != nil {
		t.Fatal(err)
	}
	// One processor's share of the node ids, block by block, runs ten
	// times as hot as the rest, four iterations at a time.
	hot := func(procs int) NodeFunc {
		return Node(func(id graph.NodeID, iter, _ int, self IntData, nbrs []Neighbor[IntData]) (IntData, float64) {
			d, _ := mix(0)(id, iter, 0, self, nbrs)
			if int(id)*procs/64 == iter/4%procs {
				return d, 3e-3
			}
			return d, 0.3e-3
		})
	}
	// pairs pairs every even processor with the next odd one, each way in
	// turn, so that most rounds move several nodes.
	pairs := func(procs int) Balancer {
		var plans [][]Pair
		for call := range 12 {
			var plan []Pair
			for p := 0; p+1 < procs; p += 2 {
				plan = append(plan, Pair{Busy: p + call%2, Idle: p + 1 - call%2})
			}
			plans = append(plans, plan)
		}
		return &scriptedBalancer{plans: plans}
	}
	multi := 0
	for _, procs := range []int{4, 8, 16} {
		for _, bal := range []Balancer{thresholdBalancer{}, skewedBalancer{}, pairs(procs)} {
			t.Run(fmt.Sprintf("%s/procs=%d", bal.Name(), procs), func(t *testing.T) {
				cfg := baseConfig(g, procs)
				cfg.Node = hot(procs)
				cfg.Iterations = 24
				balanced := cfg
				balanced.Balancer, balanced.BalanceEvery, balanced.BalanceRounds = bal, 2, 4
				balanced.DisableMigrationGuard = true
				rec := &trace.Recorder{}
				balanced.Trace = rec
				res, err := Run(balanced)
				if err != nil {
					t.Fatal(err)
				}
				r := newRoundPlan(g, cfg.InitialPartition)
				for _, tm := range rec.Migrations() {
					m := migration{node: graph.NodeID(tm.Node), from: tm.From, to: tm.To}
					if !r.fits(tm.Iter, m) {
						r.open(tm.Iter)
						if !r.fits(tm.Iter, m) {
							t.Fatalf("recorded move %+v is not legal at the start of a round", tm)
						}
					}
					r.add(m)
				}
				if len(r.moves) == 0 {
					t.Fatal("the balanced run migrated nothing")
				}
				for _, rounds := range r.moves {
					for _, round := range rounds {
						if len(round) > 1 {
							multi++
						}
					}
				}
				replay := runWithForcedMoves(t, cfg, r.moves)
				want, err := RunSequential(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(replay.FinalPartition, res.FinalPartition) || !slices.Equal(replay.FinalData, want) {
					t.Fatal("the replayed rounds end on another partition or other data than the balanced run")
				}
			})
		}
	}
	if multi == 0 {
		t.Fatal("no replayed round moved more than one node")
	}
}

// FuzzMigrationRound draws a small graph, its partition and a sequence of
// moves from the bytes, and runs the legal rounds they make through
// checkedRound: every touched rank must equal the reference after every
// round, the invariants must hold after every iteration and the final data
// must be the sequential run's. data[0] picks the vertex count n, data[1]
// the processor count (2 to 2n+1, so ranks may start empty), data[2] the
// edge count e; then come n owners and e pairs of endpoints. Each later
// pair of bytes is a move of node b0 to processor b1 (from its current
// owner), which opens a new round when b1 has its high bit set or does not
// fit the open one, and is skipped when it is not legal there. Two rounds
// follow each iteration. Seed corpus in testdata/fuzz.
func FuzzMigrationRound(f *testing.F) {
	// An 8-ring with two chords on 4 ranks: after iteration 1 two rounds of
	// two moves (the first of two neighbours), after iteration 2 two of one.
	f.Add([]byte{7, 2, 10, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4, 2, 6,
		1, 3, 2, 2, 5, 128, 6, 1, 3, 130, 0, 1})
	f.Add([]byte{11, 4, 14, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 0, 5, 2, 7, 4, 9, 1, 10, 2, 3, 5, 4, 8, 1, 3, 2, 6, 131, 9, 0, 1, 1, 4, 2})
	// A 6-ring with a chord on 9 ranks, 3 to 8 empty: moves onto them.
	f.Add([]byte{5, 7, 7, 0, 0, 1, 1, 2, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 1, 4,
		0, 5, 2, 6, 4, 135, 1, 8, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%24
		procs := 2 + int(data[1])%(2*n)
		edges := int(data[2])
		data = data[3:]
		part := make([]int, n)
		for v := range part {
			if v < len(data) {
				part[v] = int(data[v]) % procs
			}
		}
		data = data[min(n, len(data)):]
		g := graph.New(n)
		for ; edges > 0 && len(data) >= 2; edges-- {
			u, v := graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)
			data = data[2:]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v, 1); err != nil {
				t.Fatal(err)
			}
		}
		r := newRoundPlan(g, part)
		opened := 0
		for ; len(data) >= 2; data = data[2:] {
			node := graph.NodeID(int(data[0]) % n)
			m := migration{node: node, from: r.owner[node], to: int(data[1]&0x7f) % procs}
			if data[1]&0x80 != 0 || !r.fits(r.iter, m) {
				r.open(1 + opened/2)
				opened++
			}
			if r.fits(r.iter, m) {
				r.add(m)
			}
		}
		cfg := baseConfig(g, procs)
		cfg.InitialPartition = part
		cfg.Iterations = 2 + opened/2
		res := runWithForcedMoves(t, cfg, r.moves)
		want, err := RunSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.FinalData, want) || !slices.Equal(res.FinalPartition, r.owner) {
			t.Fatal("the rounds end on other data than the sequential run's, or on another partition than planned")
		}
	})
}
