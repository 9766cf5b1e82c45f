// Package battlefield reimplements the time-stepped battlefield management
// simulation the thesis deploys on the iC2mpi platform (Section 2.2,
// originally [DMP98]). The computational domain is a 32x32 grid of hex
// cells; each hex simulates all the red and blue combat units it contains
// in every time step: target selection across the six hex directions and
// the own hex (the direction indexing of the original
// hex_node_data_struct's destroyed[hex][red/blue][unit][7] array),
// damage resolution, and movement toward the enemy.
//
// Because unit movement and cross-hex fire require information exchange
// between hexes, the simulation uses two compute+communicate sub-phases
// per time step — exactly the customization the thesis describes: "the
// computation and communication function sequence is called more than
// once, rather than just once".
//
//	Sub-phase 0 (intent): every hex publishes, per unit, its fire
//	  allocation (direction 0..5 toward a neighbor, 6 for the own hex)
//	  and its movement decision, computed from its own state and its
//	  neighbors' states.
//	Sub-phase 1 (resolve): every hex executes the moves (departures out,
//	  arrivals in from the reciprocal directions), then applies the
//	  incoming enemy fire to the post-move roster and removes destroyed
//	  units.
//
// All decisions are deterministic functions of the visible state, so the
// distributed execution matches a sequential reference bit-for-bit.
package battlefield

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
)

// Side identifies an army.
type Side uint8

const (
	// Red attacks from the low-row edge of the terrain.
	Red Side = 0
	// Blue attacks from the high-row edge.
	Blue Side = 1
)

// Enemy returns the opposing side.
func (s Side) Enemy() Side { return 1 - s }

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == Red {
		return "red"
	}
	return "blue"
}

// Unit is one combat asset. Strength is both hit points and fire power.
type Unit struct {
	ID       int32
	Side     Side
	Strength int32
}

// OwnHexDir is the pseudo-direction for fire within the unit's own hex,
// matching the original simulator's direction index 6 ("0..5 neighbor, 6
// own hex").
const OwnHexDir = 6

// HexData is the per-hex node data plugged into the platform (the role of
// hex_node_data_struct wrapped in node_data in Fig. 2). The Units slice is
// the persistent state; Fire and Out are the intents published by
// sub-phase 0 and consumed by sub-phase 1.
type HexData struct {
	// Units currently stationed in this hex.
	Units []Unit
	// Fire[d][s] is the total strength side s aims at direction d
	// (0..5 neighbors, 6 own hex) this step.
	Fire [7][2]int32
	// Out[d] lists the units departing toward neighbor direction d.
	Out [6][]Unit
	// Destroyed[s] counts enemy strength destroyed by side s in this hex
	// over the whole run (the destroyed[][] bookkeeping of the original).
	Destroyed [2]int64
}

// SizeBytes implements platform.NodeData; used by the communication cost
// model. Matches the dominant terms of the original's derived MPI type:
// the unit roster plus the fixed-size fire/intent arrays.
func (h *HexData) SizeBytes() int {
	units := len(h.Units)
	for d := range h.Out {
		units += len(h.Out[d])
	}
	return 16 + 12*units + 7*2*4
}

// TotalStrength returns the summed strength of side s units in the hex.
func (h *HexData) TotalStrength(s Side) int64 {
	var sum int64
	for _, u := range h.Units {
		if u.Side == s {
			sum += int64(u.Strength)
		}
	}
	return sum
}

// Scenario describes the initial deployment of the two armies on a
// rows x cols hex terrain.
type Scenario struct {
	Rows, Cols int
	// UnitsPerHex is the number of units initially placed in each
	// deployment-zone hex.
	UnitsPerHex int
	// DeploymentRows is the depth of each army's initial strip: red holds
	// rows [0, DeploymentRows), blue holds rows [Rows-DeploymentRows,
	// Rows).
	DeploymentRows int
	// MinStrength/MaxStrength bound the seeded initial unit strengths.
	MinStrength, MaxStrength int32
	// Seed drives the deterministic strength assignment.
	Seed int64
}

// DefaultScenario is the 32x32-hex battlefield of the thesis' experiments.
func DefaultScenario() Scenario {
	return Scenario{
		Rows: 32, Cols: 32,
		UnitsPerHex:    2,
		DeploymentRows: 6,
		MinStrength:    8,
		MaxStrength:    24,
		Seed:           1998, // [DMP98]
	}
}

// Validate checks scenario parameters.
func (sc Scenario) Validate() error {
	if sc.Rows < 2 || sc.Cols < 1 {
		return fmt.Errorf("battlefield: terrain %dx%d too small", sc.Rows, sc.Cols)
	}
	if sc.DeploymentRows < 1 || 2*sc.DeploymentRows > sc.Rows {
		return fmt.Errorf("battlefield: deployment depth %d does not fit %d rows", sc.DeploymentRows, sc.Rows)
	}
	if sc.UnitsPerHex < 0 {
		return fmt.Errorf("battlefield: negative units per hex")
	}
	if sc.MinStrength < 1 || sc.MaxStrength < sc.MinStrength {
		return fmt.Errorf("battlefield: bad strength range [%d,%d]", sc.MinStrength, sc.MaxStrength)
	}
	return nil
}

// Terrain returns the application program graph for the scenario: the hex
// grid with planar coordinates (so the band partitioners and the BF
// gray-code embedding apply).
func (sc Scenario) Terrain() (*graph.Graph, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	g, err := graph.HexGrid(sc.Rows, sc.Cols)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("%dx%d-hex Battlefield", sc.Rows, sc.Cols)
	return g, nil
}

// InitData returns the platform InitData plug-in deploying the armies. Hex
// id's unit strengths are the first UnitsPerHex draws of a math/rand stream
// seeded with Seed + id*7919, so they do not depend on which hexes are asked
// for or in what order. Seeding a stream is far dearer than drawing from it
// and every rank asks for its own hexes and its shadows, so the returned
// function draws the whole deployment once, on its first call, and from then
// on only copies strengths into a fresh HexData. It is safe to call from
// several goroutines.
func (sc Scenario) InitData() func(graph.NodeID) platform.NodeData {
	side := func(id graph.NodeID) (Side, bool) {
		switch r := int(id) / sc.Cols; {
		case r < sc.DeploymentRows:
			return Red, true
		case r >= sc.Rows-sc.DeploymentRows:
			return Blue, true
		}
		return 0, false
	}
	var once sync.Once
	var strengths []int32 // UnitsPerHex per hex; deployed hexes only are drawn
	draw := func() {
		strengths = make([]int32, sc.Rows*sc.Cols*sc.UnitsPerHex)
		rng := rand.New(rand.NewSource(0))
		span := int64(sc.MaxStrength - sc.MinStrength + 1)
		for id := 0; id < sc.Rows*sc.Cols; id++ {
			if _, deployed := side(graph.NodeID(id)); !deployed {
				continue
			}
			rng.Seed(sc.Seed + int64(id)*7919)
			for i := 0; i < sc.UnitsPerHex; i++ {
				strengths[id*sc.UnitsPerHex+i] = sc.MinStrength + int32(rng.Int63n(span))
			}
		}
	}
	return func(id graph.NodeID) platform.NodeData {
		h := &HexData{}
		sd, deployed := side(id)
		if !deployed {
			return h
		}
		once.Do(draw)
		for i := 0; i < sc.UnitsPerHex; i++ {
			h.Units = append(h.Units, Unit{
				ID:       int32(int(id)*64 + i),
				Side:     sd,
				Strength: strengths[int(id)*sc.UnitsPerHex+i],
			})
		}
		return h
	}
}

// CostParams prices the per-hex simulation work for the virtual clock.
// Calibrated so a 25-step serial run of the default scenario lands near
// the thesis' ~2.24 s (Tables 7-11).
type CostParams struct {
	// PerHex is the fixed per-hex per-sub-phase cost.
	PerHex float64
	// PerUnit is charged per unit simulated in the hex.
	PerUnit float64
	// PerEngagement is charged per unit actively firing.
	PerEngagement float64
}

// DefaultCost returns the calibrated cost parameters.
func DefaultCost() CostParams {
	return CostParams{
		PerHex:        18e-6,
		PerUnit:       10e-6,
		PerEngagement: 14e-6,
	}
}

// NodeFunc returns the platform node function for the scenario. It must be
// run with platform SubPhases = 2.
func (sc Scenario) NodeFunc(cost CostParams) platform.NodeFunc {
	rows, cols := sc.Rows, sc.Cols
	return func(id graph.NodeID, iter, sub int, self platform.NodeData, neighbors []platform.Neighbor) (platform.NodeData, float64) {
		h, ok := self.(*HexData)
		if !ok {
			panic(fmt.Sprintf("battlefield: node %d has %T data", id, self))
		}
		switch sub {
		case 0:
			return intentPhase(id, iter, h, neighbors, rows, cols, cost)
		default:
			return resolvePhase(id, h, neighbors, rows, cols, cost)
		}
	}
}

// dirOf returns the hex direction (0..5) from (r, c) to a neighboring
// node, or -1 if the node is not adjacent.
func dirOf(r, c int, to graph.NodeID, cols int) int {
	tr, tc := int(to)/cols, int(to)%cols
	offs := graph.HexNeighborOffsets(r)
	for d, off := range offs {
		if r+off.Row == tr && c+off.Col == tc {
			return d
		}
	}
	return -1
}

// quiet reports whether h holds no unit and publishes nothing: Units nil,
// Fire zero, every Out lane nil. Unless something arrives, both sub-phases
// compute exactly that value again (Destroyed carried over), so they return
// h itself — most of the terrain, on any step. An emptied roster, non-nil
// with length 0, is not quiet: the next phase makes it nil, and a
// checkpoint encodes the two apart.
func (h *HexData) quiet() bool {
	for d := range h.Out {
		if h.Out[d] != nil {
			return false
		}
	}
	return h.Units == nil && h.Fire == [7][2]int32{}
}

// intentPhase publishes fire allocations and movement decisions. The new
// value shares h.Units: data values are immutable once returned (see
// platform.NodeFunc), and no phase writes a roster it did not allocate.
func intentPhase(id graph.NodeID, iter int, h *HexData, neighbors []platform.Neighbor, rows, cols int, cost CostParams) (platform.NodeData, float64) {
	if h.quiet() {
		return h, cost.PerHex // no unit, no engagement
	}
	r, c := int(id)/cols, int(id)%cols
	out := &HexData{Destroyed: h.Destroyed}
	if len(h.Units) > 0 {
		out.Units = h.Units
	}

	// Enemy strength visible per direction, per my side.
	var enemy [7][2]int64
	for s := Side(0); s <= 1; s++ {
		enemy[OwnHexDir][s] = h.TotalStrength(s.Enemy())
	}
	for _, nb := range neighbors {
		d := dirOf(r, c, nb.ID, cols)
		nd := nb.Data.(*HexData)
		for s := Side(0); s <= 1; s++ {
			enemy[d][s] = nd.TotalStrength(s.Enemy())
		}
	}

	engagements := 0
	for _, u := range out.Units {
		// Fire: aim at the direction with the most visible enemy
		// strength, preferring the own hex on ties (close combat first).
		fireDir := -1
		var best int64
		for d := OwnHexDir; d >= 0; d-- {
			if e := enemy[d][u.Side]; e > best {
				best = e
				fireDir = d
			}
		}
		if fireDir >= 0 {
			out.Fire[fireDir][u.Side] += u.Strength
			engagements++
		}
		// Movement: hold when enemies are in our hex or we are firing at
		// an adjacent hex this step; otherwise advance toward the enemy
		// deployment edge with a deterministic zigzag that shifts the
		// combat zone over time (the dynamic load the thesis stresses).
		moveDir := -1
		if best == 0 {
			moveDir = marchDirection(u, r, c, iter, rows, cols)
		}
		if moveDir >= 0 {
			out.Out[moveDir] = append(out.Out[moveDir], u)
		}
	}
	vcost := cost.PerHex + float64(len(out.Units))*cost.PerUnit + float64(engagements)*cost.PerEngagement
	return out, vcost
}

// marchDirection steers an idle unit toward the front: red advances to
// higher rows up to the midline, blue to lower rows down to the midline,
// with a column zigzag keyed on the unit ID and iteration. Holding at the
// midline makes the two armies form opposing lines where the combat zone
// then develops — the dynamically forming hot region the thesis' load
// balancing discussion centers on.
func marchDirection(u Unit, r, c, iter, rows, cols int) int {
	var wantRow int
	if u.Side == Red {
		if r >= rows/2-1 {
			return -1 // holding the line
		}
		wantRow = r + 1
	} else {
		if r <= rows/2 {
			return -1
		}
		wantRow = r - 1
	}
	if wantRow < 0 || wantRow >= rows {
		return -1
	}
	zig := (int(u.ID) + iter) % 3 // 0: either, 1: prefer east-ish, 2: prefer west-ish
	offs := graph.HexNeighborOffsets(r)
	bestDir := -1
	for d, off := range offs {
		nr, nc := r+off.Row, c+off.Col
		if nr != wantRow || nc < 0 || nc >= cols {
			continue
		}
		if bestDir == -1 {
			bestDir = d
			continue
		}
		// Two candidate diagonals; pick by zigzag preference.
		prev := offs[bestDir]
		switch zig {
		case 1:
			if off.Col > prev.Col {
				bestDir = d
			}
		case 2:
			if off.Col < prev.Col {
				bestDir = d
			}
		}
	}
	return bestDir
}

// resolvePhase executes movements and applies fire to the post-move
// rosters.
func resolvePhase(id graph.NodeID, h *HexData, neighbors []platform.Neighbor, rows, cols int, cost CostParams) (platform.NodeData, float64) {
	r, c := int(id)/cols, int(id)%cols

	// Arrivals: every neighbor's Out lane whose direction points at us is
	// the reciprocal (d+3)%6 of our direction toward the neighbor.
	var incomingFire [2]int64 // fire aimed at this hex by side s
	incomingFire[Red] = int64(h.Fire[OwnHexDir][Red])
	incomingFire[Blue] = int64(h.Fire[OwnHexDir][Blue])
	var from [6]*HexData // the neighbor in each direction
	arrivals := 0
	for _, nb := range neighbors {
		d := dirOf(r, c, nb.ID, cols)
		nd := nb.Data.(*HexData)
		recip := (d + 3) % 6
		from[d] = nd
		arrivals += len(nd.Out[recip])
		incomingFire[Red] += int64(nd.Fire[recip][Red])
		incomingFire[Blue] += int64(nd.Fire[recip][Blue])
	}
	// Fire into a hex with nobody in it hits nothing.
	if arrivals == 0 && h.quiet() {
		return h, cost.PerHex
	}

	// Units that stay: everything not listed in an Out lane.
	stay := 0
	for _, u := range h.Units {
		if !h.departs(u.ID) {
			stay++
		}
	}
	out := &HexData{Destroyed: h.Destroyed}
	if stay+arrivals > 0 {
		out.Units = make([]Unit, 0, stay+arrivals)
	}
	for _, u := range h.Units {
		if !h.departs(u.ID) {
			out.Units = append(out.Units, u)
		}
	}
	// Arrivals join in (direction, ID) order: lanes in direction order, each
	// sorted by ID as it is appended.
	for d, nd := range from {
		if nd == nil {
			continue
		}
		lane := len(out.Units)
		out.Units = append(out.Units, nd.Out[(d+3)%6]...)
		slices.SortFunc(out.Units[lane:], func(a, b Unit) int { return cmp.Compare(a.ID, b.ID) })
	}

	// Apply damage: side s units absorb the enemy's fire aimed here, in
	// deterministic (strength desc, ID asc) order — the strongest assets
	// screen the rest, as in the original's target-priority tables. Every
	// unit hit before the fire runs out is destroyed, so the next in that
	// order is always the strongest one still standing.
	for s := Side(0); s <= 1; s++ {
		dmg := incomingFire[s.Enemy()]
		if dmg <= 0 {
			continue
		}
		for dmg > 0 {
			var next *Unit
			for i := range out.Units {
				u := &out.Units[i]
				if u.Side != s || u.Strength <= 0 {
					continue
				}
				if next == nil || u.Strength > next.Strength || u.Strength == next.Strength && u.ID < next.ID {
					next = u
				}
			}
			if next == nil {
				break
			}
			hit := min(int64(next.Strength), dmg)
			next.Strength -= int32(hit)
			dmg -= hit
			out.Destroyed[s.Enemy()] += hit
		}
		survivors := out.Units[:0]
		for _, u := range out.Units {
			if u.Strength > 0 {
				survivors = append(survivors, u)
			}
		}
		out.Units = survivors
	}
	vcost := cost.PerHex + float64(len(out.Units)+arrivals)*cost.PerUnit
	return out, vcost
}

// departs reports whether the unit with this ID is listed in an Out lane.
func (h *HexData) departs(id int32) bool {
	for d := range h.Out {
		for _, u := range h.Out[d] {
			if u.ID == id {
				return true
			}
		}
	}
	return false
}

// Summary aggregates a battlefield state for reports and invariants.
type Summary struct {
	Units     [2]int
	Strength  [2]int64
	Destroyed [2]int64
}

// Summarize folds the final node data of a run into a Summary.
func Summarize(data []platform.NodeData) (Summary, error) {
	var s Summary
	for i, d := range data {
		h, ok := d.(*HexData)
		if !ok {
			return s, fmt.Errorf("battlefield: node %d has %T data", i, d)
		}
		for _, u := range h.Units {
			s.Units[u.Side]++
			s.Strength[u.Side] += int64(u.Strength)
		}
		s.Destroyed[Red] += h.Destroyed[Red]
		s.Destroyed[Blue] += h.Destroyed[Blue]
	}
	return s, nil
}
