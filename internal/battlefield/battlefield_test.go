package battlefield

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/platform"
)

func smallScenario() Scenario {
	return Scenario{
		Rows: 8, Cols: 8,
		UnitsPerHex:    2,
		DeploymentRows: 2,
		MinStrength:    5,
		MaxStrength:    15,
		Seed:           42,
	}
}

func runConfig(t *testing.T, sc Scenario, procs, steps int, part []int) platform.Config {
	t.Helper()
	terrain, err := sc.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	if part == nil {
		part = make([]int, terrain.NumVertices())
		for v := range part {
			part[v] = v * procs / terrain.NumVertices()
		}
	}
	return platform.Config{
		Graph:            terrain,
		Procs:            procs,
		InitialPartition: part,
		InitData:         sc.InitData(),
		Node:             sc.NodeFunc(DefaultCost()),
		Iterations:       steps,
		SubPhases:        2,
		Network:          netmodel.NewUniform(netmodel.Origin2000()),
	}
}

func TestScenarioValidation(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultScenario()
	bad.Rows = 1
	if err := bad.Validate(); err == nil {
		t.Error("1-row terrain accepted")
	}
	bad = DefaultScenario()
	bad.DeploymentRows = 20
	if err := bad.Validate(); err == nil {
		t.Error("overlapping deployments accepted")
	}
	bad = DefaultScenario()
	bad.MinStrength = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero strength accepted")
	}
	bad = DefaultScenario()
	bad.MaxStrength = bad.MinStrength - 1
	if err := bad.Validate(); err == nil {
		t.Error("inverted strength range accepted")
	}
}

func TestTerrainShape(t *testing.T) {
	sc := DefaultScenario()
	g, err := sc.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("terrain has %d hexes, want 1024", g.NumVertices())
	}
	if g.Coords == nil {
		t.Fatal("terrain lacks coordinates (band partitioners need them)")
	}
}

func TestInitDataDeployments(t *testing.T) {
	sc := smallScenario()
	init := sc.InitData()
	for v := 0; v < sc.Rows*sc.Cols; v++ {
		h := init(graph.NodeID(v)).(*HexData)
		r := v / sc.Cols
		switch {
		case r < sc.DeploymentRows:
			if len(h.Units) != sc.UnitsPerHex {
				t.Fatalf("red hex %d has %d units", v, len(h.Units))
			}
			for _, u := range h.Units {
				if u.Side != Red {
					t.Fatalf("red zone hex %d holds %v unit", v, u.Side)
				}
				if u.Strength < sc.MinStrength || u.Strength > sc.MaxStrength {
					t.Fatalf("unit strength %d out of range", u.Strength)
				}
			}
		case r >= sc.Rows-sc.DeploymentRows:
			for _, u := range h.Units {
				if u.Side != Blue {
					t.Fatalf("blue zone hex %d holds %v unit", v, u.Side)
				}
			}
		default:
			if len(h.Units) != 0 {
				t.Fatalf("no-man's-land hex %d has %d units", v, len(h.Units))
			}
		}
	}
	// Deterministic across invocations.
	a := init(5).(*HexData)
	b := init(5).(*HexData)
	for i := range a.Units {
		if a.Units[i] != b.Units[i] {
			t.Fatal("InitData not deterministic")
		}
	}
}

// TestInitDataMatchesPerHexSeeding holds the once-drawn strength table to
// what seeding a fresh stream per hex gives, on all 1024 hexes of the
// thesis' terrain, with the closure's first calls racing each other: every
// rank of a run calls the same closure from its own goroutine.
func TestInitDataMatchesPerHexSeeding(t *testing.T) {
	sc := DefaultScenario()
	n := sc.Rows * sc.Cols
	want := make([]*HexData, n)
	for v := range want {
		h := &HexData{}
		r := v / sc.Cols
		if r < sc.DeploymentRows || r >= sc.Rows-sc.DeploymentRows {
			side := Red
			if r >= sc.DeploymentRows {
				side = Blue
			}
			rng := rand.New(rand.NewSource(sc.Seed + int64(v)*7919))
			for i := 0; i < sc.UnitsPerHex; i++ {
				h.Units = append(h.Units, Unit{
					ID:       int32(v*64 + i),
					Side:     side,
					Strength: sc.MinStrength + int32(rng.Int63n(int64(sc.MaxStrength-sc.MinStrength+1))),
				})
			}
		}
		want[v] = h
	}

	init := sc.InitData()
	const callers = 8
	got := make([][]*HexData, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller starts at another hex, so the first call is not
			// always for hex 0.
			hexes := make([]*HexData, n)
			for i := range hexes {
				v := (i + c*n/callers) % n
				hexes[v] = init(graph.NodeID(v)).(*HexData)
			}
			got[c] = hexes
		}()
	}
	wg.Wait()
	for c, hexes := range got {
		for v, h := range hexes {
			if !reflect.DeepEqual(h, want[v]) {
				t.Fatalf("caller %d, hex %d: got %+v, per-hex seeding gives %+v", c, v, h, want[v])
			}
			if c > 0 && h == got[0][v] {
				t.Fatalf("hex %d: two calls returned the same HexData", v)
			}
		}
	}
}

func TestHexDataSizeBytes(t *testing.T) {
	h := &HexData{Units: []Unit{{ID: 1, Side: Red, Strength: 5}}}
	h.Out[2] = []Unit{{ID: 2, Side: Blue, Strength: 3}}
	if h.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}

func TestSequentialBattleProgression(t *testing.T) {
	sc := smallScenario()
	cfg := runConfig(t, sc, 1, 0, nil)

	// Initial totals.
	initData := make([]platform.NodeData, cfg.Graph.NumVertices())
	for v := range initData {
		initData[v] = cfg.InitData(graph.NodeID(v))
	}
	start, err := Summarize(initData)
	if err != nil {
		t.Fatal(err)
	}
	if start.Units[Red] == 0 || start.Units[Blue] == 0 {
		t.Fatal("armies not deployed")
	}

	cfg.Iterations = 20
	final, err := platform.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	end, err := Summarize(final)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: strength only decreases, and the decrease equals the
	// total destroyed bookkeeping.
	for s := Side(0); s <= 1; s++ {
		if end.Strength[s] > start.Strength[s] {
			t.Fatalf("%v strength grew: %d -> %d", s, start.Strength[s], end.Strength[s])
		}
		lost := start.Strength[s] - end.Strength[s]
		if lost != end.Destroyed[s.Enemy()] {
			t.Fatalf("%v lost %d strength but enemy recorded %d destroyed", s, lost, end.Destroyed[s.Enemy()])
		}
	}
	// After 20 steps the armies (2 rows apart initially... 4 rows apart)
	// must have engaged: some strength destroyed.
	if end.Destroyed[Red]+end.Destroyed[Blue] == 0 {
		t.Fatal("no combat occurred in 20 steps")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	sc := smallScenario()
	for _, procs := range []int{2, 4, 8} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			cfg := runConfig(t, sc, procs, 15, nil)
			res, err := platform.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := platform.RunSequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				a := res.FinalData[v].(*HexData)
				b := want[v].(*HexData)
				if len(a.Units) != len(b.Units) {
					t.Fatalf("hex %d: %d units vs %d sequential", v, len(a.Units), len(b.Units))
				}
				for i := range a.Units {
					if a.Units[i] != b.Units[i] {
						t.Fatalf("hex %d unit %d: %+v vs %+v", v, i, a.Units[i], b.Units[i])
					}
				}
				if a.Destroyed != b.Destroyed {
					t.Fatalf("hex %d destroyed %v vs %v", v, a.Destroyed, b.Destroyed)
				}
			}
		})
	}
}

func TestUnitsMarchTowardEachOther(t *testing.T) {
	sc := smallScenario()
	cfg := runConfig(t, sc, 1, 3, nil)
	final, err := platform.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After 3 steps red units must have advanced past their deployment
	// zone (rows 0-1) and blue past theirs.
	redAdvanced, blueAdvanced := false, false
	for v, d := range final {
		h := d.(*HexData)
		r := v / sc.Cols
		for _, u := range h.Units {
			if u.Side == Red && r >= sc.DeploymentRows {
				redAdvanced = true
			}
			if u.Side == Blue && r < sc.Rows-sc.DeploymentRows {
				blueAdvanced = true
			}
		}
	}
	if !redAdvanced || !blueAdvanced {
		t.Fatalf("armies did not advance: red=%v blue=%v", redAdvanced, blueAdvanced)
	}
}

func TestDirOfReciprocal(t *testing.T) {
	// dirOf and the (d+3)%6 reciprocal used in resolvePhase must agree
	// with the hex grid adjacency for both row parities.
	g, err := graph.HexGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		r, c := v/6, v%6
		for _, u := range g.Adj[v] {
			d := dirOf(r, c, u, 6)
			if d < 0 {
				t.Fatalf("dirOf(%d -> %d) = -1 for adjacent nodes", v, u)
			}
			ur, uc := int(u)/6, int(u)%6
			back := dirOf(ur, uc, graph.NodeID(v), 6)
			if back != (d+3)%6 {
				t.Fatalf("reciprocal of dir %d is %d, want %d", d, back, (d+3)%6)
			}
		}
	}
}

func TestCombatLoadIsDynamic(t *testing.T) {
	// The per-hex cost must shift over time: the busiest region early
	// (deployment rows) differs from the busiest region at contact. We
	// proxy cost by unit count per row band.
	sc := smallScenario()
	cfg := runConfig(t, sc, 1, 0, nil)
	rowsWithUnits := func(data []platform.NodeData) (minR, maxR int) {
		minR, maxR = sc.Rows, -1
		for v, d := range data {
			h := d.(*HexData)
			if len(h.Units) == 0 {
				continue
			}
			r := v / sc.Cols
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		return minR, maxR
	}
	cfg.Iterations = 2
	early, err := platform.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eMin, eMax := rowsWithUnits(early)
	if eMin >= eMax {
		t.Fatal("units collapsed immediately")
	}
	cfg.Iterations = 8
	late, err := platform.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lMin, lMax := rowsWithUnits(late)
	if !(lMin > eMin || lMax < eMax) {
		t.Fatalf("combat zone did not move: early rows [%d,%d], late rows [%d,%d]", eMin, eMax, lMin, lMax)
	}
}

func TestSummarizeRejectsWrongType(t *testing.T) {
	if _, err := Summarize([]platform.NodeData{platform.IntData(1)}); err == nil {
		t.Fatal("Summarize accepted IntData")
	}
}

func TestSideHelpers(t *testing.T) {
	if Red.Enemy() != Blue || Blue.Enemy() != Red {
		t.Fatal("Enemy() wrong")
	}
	if Red.String() != "red" || Blue.String() != "blue" {
		t.Fatal("String() wrong")
	}
}

// Property: for arbitrary scenario seeds, total strength is conserved
// minus destroyed, and unit IDs stay unique across the terrain.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, stepsRaw uint8) bool {
		sc := smallScenario()
		sc.Seed = seed
		steps := int(stepsRaw%10) + 1
		terrain, err := sc.Terrain()
		if err != nil {
			return false
		}
		part := make([]int, terrain.NumVertices())
		cfg := platform.Config{
			Graph:            terrain,
			Procs:            1,
			InitialPartition: part,
			InitData:         sc.InitData(),
			Node:             sc.NodeFunc(DefaultCost()),
			Iterations:       steps,
			SubPhases:        2,
		}
		initData := make([]platform.NodeData, terrain.NumVertices())
		for v := range initData {
			initData[v] = cfg.InitData(graph.NodeID(v))
		}
		start, err := Summarize(initData)
		if err != nil {
			return false
		}
		final, err := platform.RunSequential(cfg)
		if err != nil {
			return false
		}
		end, err := Summarize(final)
		if err != nil {
			return false
		}
		for s := Side(0); s <= 1; s++ {
			if start.Strength[s]-end.Strength[s] != end.Destroyed[s.Enemy()] {
				return false
			}
		}
		seen := map[int32]bool{}
		for _, d := range final {
			for _, u := range d.(*HexData).Units {
				if seen[u.ID] {
					return false
				}
				seen[u.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestBattlefieldAllocsPinned holds the sub-phases to what they allocate per
// hex: nothing for a quiet hex (most of the terrain on any step — both
// phases return the value they were given), one HexData for a hex that
// fires, plus its lanes for one that marches, and one HexData and one
// exactly-sized roster for a hex that takes arrivals and damage.
func TestBattlefieldAllocsPinned(t *testing.T) {
	sc := DefaultScenario()
	node := sc.node(DefaultCost())
	terrain, err := sc.Terrain()
	if err != nil {
		t.Fatal(err)
	}
	// Hex 15*32+5 sits on red's holding row, away from the edges.
	const id = graph.NodeID(15*32 + 5)
	phase := func(sub int, self *HexData, others func(d int) *HexData) (allocs float64, out *HexData) {
		nbrs := make([]platform.Neighbor[*HexData], len(terrain.Adj[id]))
		for i, u := range terrain.Adj[id] {
			nbrs[i] = platform.Neighbor[*HexData]{ID: u, Data: others(dirOf(int(id)/32, int(id)%32, u, 32))}
		}
		allocs = testing.AllocsPerRun(100, func() {
			out, _ = node(id, 11, sub, self, nbrs)
		})
		return allocs, out
	}
	empty := func(int) *HexData { return &HexData{} }

	quiet := &HexData{Destroyed: [2]int64{3, 4}}
	for sub := 0; sub < 2; sub++ {
		if allocs, out := phase(sub, quiet, empty); allocs != 0 || out != quiet {
			t.Errorf("quiet hex, sub-phase %d: %v allocs, same value returned: %v; want 0, true", sub, allocs, out == quiet)
		}
	}

	reds := &HexData{Units: []Unit{{ID: 1, Side: Red, Strength: 9}, {ID: 2, Side: Red, Strength: 7}, {ID: 3, Side: Red, Strength: 7}}}
	blues := func(int) *HexData { return &HexData{Units: []Unit{{ID: 9, Side: Blue, Strength: 5}}} }
	allocs, intent := phase(0, reds, blues)
	if allocs != 1 || intent.Fire == [7][2]int32{} {
		t.Errorf("firing hex, intent: %v allocs, fire %v; want 1 and some fire", allocs, intent.Fire)
	}

	// A step behind the holding row the same three units march: one lane
	// per direction taken, grown as units join it.
	const rear = graph.NodeID(10*32 + 5)
	allocs = testing.AllocsPerRun(100, func() {
		intent, _ = node(rear, 11, 0, reds, nil)
	})
	moving := 0
	for _, lane := range intent.Out {
		moving += len(lane)
	}
	if moving != 3 || allocs > 4 {
		t.Errorf("marching hex, intent: %d units moving, %v allocs; want 3 and at most 4", moving, allocs)
	}

	// Resolve: two units arrive from direction 0, out of ID order, and blue
	// fire from direction 3 destroys the strongest unit and wounds the next.
	arriving := func(d int) *HexData {
		h := &HexData{}
		switch d {
		case 0:
			h.Out[3] = []Unit{{ID: 8, Side: Red, Strength: 4}, {ID: 6, Side: Red, Strength: 4}}
		case 3:
			h.Fire[0][Blue] = 12
		}
		return h
	}
	allocs, after := phase(1, reds, arriving)
	want := []Unit{{ID: 2, Side: Red, Strength: 4}, {ID: 3, Side: Red, Strength: 7}, {ID: 6, Side: Red, Strength: 4}, {ID: 8, Side: Red, Strength: 4}}
	if allocs != 2 || !reflect.DeepEqual(after.Units, want) || after.Destroyed[Blue] != 12 {
		t.Errorf("busy hex, resolve: %v allocs, units %v, destroyed %v; want 2, %v, 12 by blue", allocs, after.Units, after.Destroyed, want)
	}
	if reds.Units[0].Strength != 9 {
		t.Error("resolve wrote the roster it was given")
	}
}
