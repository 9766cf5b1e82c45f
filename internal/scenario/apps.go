package scenario

import (
	"ic2mpi/internal/bsp"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/trace"
	"ic2mpi/internal/workload"
)

// Application scenarios beyond the paper's evaluation: heat diffusion,
// Game of Life, single-source shortest paths, and BSP PageRank.

// Temp is the heat scenario's node data: a temperature in fixed-point
// micro-kelvins, so distributed and sequential runs compare bitwise.
type Temp int64

// SizeBytes implements platform.NodeData.
func (t Temp) SizeBytes() int { return 8 }

// HeatRows and HeatCols are the heat scenario's mesh dimensions.
const (
	HeatRows = 16
	HeatCols = 16
)

// HeatInit returns the heat scenario's initial data for a mesh of n
// nodes: a hot spot (+1.0) at node 0, a cold spot (-1.0) at node n-1,
// everything else at zero.
func HeatInit(n int) func(graph.NodeID) platform.NodeData {
	hot, cold := graph.NodeID(0), graph.NodeID(n-1)
	return func(id graph.NodeID) platform.NodeData {
		switch id {
		case hot:
			return Temp(1_000_000) // 1.0 in micro-units
		case cold:
			return Temp(-1_000_000)
		default:
			return Temp(0)
		}
	}
}

// HeatNode returns the heat scenario's node function for a mesh of n
// nodes: Dirichlet boundary at the hot/cold spots, everything else
// relaxing to the mean of its neighbors.
func HeatNode(n int) platform.NodeFunc {
	hot, cold := graph.NodeID(0), graph.NodeID(n-1)
	return func(id graph.NodeID, iter, sub int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
		if id == hot || id == cold {
			return self, 0.1e-3
		}
		var sum int64
		for _, nb := range nbrs {
			sum += int64(nb.Data.(Temp))
		}
		return Temp(sum / int64(len(nbrs))), 0.1e-3
	}
}

// Alive and Dead are the Game of Life cell states (life scenario data is
// platform.IntData holding one of the two).
const (
	Dead  platform.IntData = 0
	Alive platform.IntData = 1
)

// LifeRows and LifeCols are the life scenario's grid dimensions.
const (
	LifeRows = 16
	LifeCols = 16
)

// LifeInit is the life scenario's deterministic primordial soup: roughly
// 3/8 of the cells start alive, chosen by a fixed multiplicative hash of
// the cell ID so every run (and every processor count) starts identically.
func LifeInit(id graph.NodeID) platform.NodeData {
	x := uint64(id+1) * 0x9E3779B97F4A7C15
	if x>>61 < 3 {
		return Alive
	}
	return Dead
}

// LifeNode is Conway's rule over the Moore neighborhood: a live cell
// survives with two or three live neighbors, a dead cell is born with
// exactly three. Cells on the grid boundary simply see fewer neighbors
// (hard walls).
func LifeNode(id graph.NodeID, iter, sub int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
	live := 0
	for _, nb := range nbrs {
		if nb.Data.(platform.IntData) == Alive {
			live++
		}
	}
	next := Dead
	if live == 3 || (live == 2 && self.(platform.IntData) == Alive) {
		next = Alive
	}
	return next, 0.1e-3
}

// Unreachable is the sssp scenario's infinite distance sentinel.
const Unreachable platform.IntData = 1 << 30

// SSSPSource is the sssp scenario's source vertex.
const SSSPSource graph.NodeID = 0

// SSSPInit initializes the source distance to zero and every other node
// to Unreachable.
func SSSPInit(id graph.NodeID) platform.NodeData {
	if id == SSSPSource {
		return platform.IntData(0)
	}
	return Unreachable
}

// SSSPNode is one Bellman-Ford relaxation step over unit edge weights:
// each node takes the minimum of its own distance and its neighbors'
// previous-iteration distances plus one. After diameter-many iterations
// every distance equals the BFS hop count from SSSPSource.
func SSSPNode(id graph.NodeID, iter, sub int, self platform.NodeData, nbrs []platform.Neighbor) (platform.NodeData, float64) {
	best := self.(platform.IntData)
	for _, nb := range nbrs {
		if d := nb.Data.(platform.IntData); d < Unreachable && d+1 < best {
			best = d + 1
		}
	}
	return best, workload.FineGrain
}

// PageRankDamping is the damping factor of the pagerank-bsp scenario.
const PageRankDamping = 0.85

// PageRankBSP runs iters PageRank supersteps over g on procs BSP
// processes with the scenario's built-in machine: computation charged,
// h-relations shipped for free. See PageRankBSPOn for an explicit
// interconnect.
func PageRankBSP(g *graph.Graph, procs, iters int, rec *trace.Recorder) ([]float64, float64, error) {
	return PageRankBSPOn(g, procs, iters, nil, rec)
}

// PageRankBSPOn runs iters PageRank supersteps over g on procs BSP
// processes (block vertex distribution, one Put per edge per superstep)
// with Put traffic priced by the given interconnect model (nil means
// free), and returns the final ranks plus the maximum virtual completion
// time across processes. Deterministic for a fixed (g, procs, iters,
// model). A non-nil rec records one trace sample per (superstep,
// process): the scatter loop as compute, Sync as communicate.
func PageRankBSPOn(g *graph.Graph, procs, iters int, model netmodel.Model, rec *trace.Recorder) ([]float64, float64, error) {
	return pageRankBSPRun(g, iters, mpi.Options{Procs: procs, Cost: model}, rec)
}

// bspOptions builds the superstep layer's options from normalized
// parameters — the one place the pagerank-bsp runner's knobs (procs,
// network, kernel, kernel workers, stop) cross into mpi.Options. The empty
// network keeps the scenario's built-in free-comm machine; a named one
// prices the h-relations.
func bspOptions(p Params) (mpi.Options, error) {
	opts := mpi.Options{Procs: p.Procs, Workers: p.KernelWorkers, Stop: p.Stop}
	var err error
	if p.Network != "" {
		if opts.Cost, err = netmodel.New(p.Network, p.Procs); err != nil {
			return opts, err
		}
	}
	opts.Kernel, err = mpi.ParseKernel(p.Kernel)
	return opts, err
}

// pageRankBSPRun is PageRankBSPOn at explicit mpi.Options, so the scenario
// runner can put the BSP workload under any kernel name and worker count.
func pageRankBSPRun(g *graph.Graph, iters int, opts mpi.Options, rec *trace.Recorder) ([]float64, float64, error) {
	procs := opts.Procs
	n := g.NumVertices()
	ranks := make([]float64, n)
	times := make([]float64, procs)
	// Inverse of the block bounds lo/hi below, exact even when procs does
	// not divide n: the owner of v is the largest p with p*n/procs <= v.
	ownerOf := func(v int) int { return ((v+1)*procs - 1) / n }
	if rec != nil {
		rec.Start(procs, iters)
		// The block distribution never changes, so the live edge-cut is
		// the same every superstep.
		owner := make([]int, n)
		for v := range owner {
			owner[v] = ownerOf(v)
		}
		cut, err := g.EdgeCut(owner)
		if err != nil {
			return nil, 0, err
		}
		for it := 1; it <= iters; it++ {
			rec.RecordEdgeCut(it, cut)
		}
	}
	runErr := bsp.Run(opts, func(p *bsp.Proc) error {
		lo := p.Pid() * n / p.NProcs()
		hi := (p.Pid() + 1) * n / p.NProcs()

		local := make([]float64, hi-lo)
		for i := range local {
			local[i] = 1.0 / float64(n)
		}
		for iter := 0; iter < iters; iter++ {
			t0, stats0 := p.Time(), p.Stats()
			// Scatter contributions along edges.
			for v := lo; v < hi; v++ {
				deg := len(g.Adj[v])
				if deg == 0 {
					continue
				}
				share := local[v-lo] / float64(deg)
				for _, u := range g.Adj[v] {
					if err := p.Put(ownerOf(int(u)), int(u), share, 16); err != nil {
						return err
					}
				}
				p.Charge(float64(deg) * 50e-9)
			}
			tc := p.Time()
			in, err := p.Sync()
			if err != nil {
				return err
			}
			if rec != nil {
				t1, stats1 := p.Time(), p.Stats()
				rec.RecordSample(trace.Sample{
					Iter:      iter + 1,
					Proc:      p.Pid(),
					WallS:     t1,
					ComputeS:  tc - t0,
					CommS:     t1 - tc,
					IdleS:     stats1.IdleSeconds - stats0.IdleSeconds,
					MsgsSent:  stats1.MessagesSent - stats0.MessagesSent,
					MsgsRecv:  stats1.MessagesReceived - stats0.MessagesReceived,
					BytesSent: stats1.BytesSent - stats0.BytesSent,
					BytesRecv: stats1.BytesReceived - stats0.BytesReceived,
				})
			}
			for i := range local {
				local[i] = (1 - PageRankDamping) / float64(n)
			}
			for _, m := range in {
				local[m.Tag-lo] += PageRankDamping * m.Payload.(float64)
			}
		}
		// Report results home (process 0 collects).
		for v := lo; v < hi; v++ {
			if err := p.Put(0, v, local[v-lo], 16); err != nil {
				return err
			}
		}
		in, err := p.Sync()
		if err != nil {
			return err
		}
		if p.Pid() == 0 {
			for _, m := range in {
				ranks[m.Tag] = m.Payload.(float64)
			}
		}
		times[p.Pid()] = p.Time()
		return nil
	})
	if runErr != nil {
		return nil, 0, runErr
	}
	if rec != nil {
		rec.Finish()
	}
	elapsed := 0.0
	for _, t := range times {
		if t > elapsed {
			elapsed = t
		}
	}
	return ranks, elapsed, nil
}

// PageRankSequential is the single-address-space reference the BSP ranks
// are verified against.
func PageRankSequential(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	r := make([]float64, n)
	next := make([]float64, n)
	for v := range r {
		r[v] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = (1 - PageRankDamping) / float64(n)
		}
		for v := 0; v < n; v++ {
			deg := len(g.Adj[v])
			if deg == 0 {
				continue
			}
			share := r[v] / float64(deg)
			for _, u := range g.Adj[v] {
				next[u] += PageRankDamping * share
			}
		}
		r, next = next, r
	}
	return r
}

func init() {
	Register(Scenario{
		Name:        "heat",
		Description: "2-D heat diffusion on a 16x16 hex mesh with a user-defined fixed-point NodeData type",
		Stresses:    "user-defined NodeData crossing processor boundaries; bitwise agreement with the sequential reference",
		Graph:       func() (*graph.Graph, error) { return graph.HexGrid(HeatRows, HeatCols) },
		InitData:    HeatInit(HeatRows * HeatCols),
		Node:        func(*graph.Graph) platform.NodeFunc { return HeatNode(HeatRows * HeatCols) },
		Iterations:  100,
		Defaults:    Params{Partitioner: "metis"},
	})

	Register(Scenario{
		Name:        "life",
		Description: "Conway's Game of Life on a 16x16 Moore-neighborhood grid from a deterministic soup",
		Stresses:    "8-neighbor stencils on a non-hex topology and the geometric partitioners (grid coordinates)",
		Graph:       func() (*graph.Graph, error) { return graph.Grid(LifeRows, LifeCols, true) },
		InitData:    LifeInit,
		Node:        func(*graph.Graph) platform.NodeFunc { return LifeNode },
		Iterations:  30,
	})

	Register(Scenario{
		Name:        "sssp",
		Description: "single-source shortest paths (Bellman-Ford relaxation) on the 96-node hexagonal grid",
		Stresses:    "data-dependent convergence: the wavefront touches few nodes early, the whole graph late",
		Graph:       func() (*graph.Graph, error) { return graph.PaperHexGrid(96) },
		InitData:    SSSPInit,
		Node:        func(*graph.Graph) platform.NodeFunc { return SSSPNode },
		Iterations:  24,
	})

	Register(Scenario{
		Name:        "pagerank-bsp",
		Description: "PageRank over a 256-node random graph on the BSP superstep layer (thesis Section 8 extension)",
		Stresses:    "the bsp layer: h-relation exchange, barrier cost, block (non-partitioned) vertex distribution",
		Graph:       func() (*graph.Graph, error) { return graph.Random(256, 8.0/256, 777) },
		Iterations:  20,
		Defaults: Params{
			Partitioner: "block",
			Exchange:    "bsp",
			Buffers:     "n/a",
		},
		Runner: func(sc Scenario, p Params) (*Result, error) {
			g, err := sc.Graph()
			if err != nil {
				return nil, err
			}
			opts, err := bspOptions(p)
			if err != nil {
				return nil, err
			}
			_, elapsed, err := pageRankBSPRun(g, p.Iterations, opts, p.Trace)
			if err != nil {
				return nil, err
			}
			return &Result{Scenario: sc.Name, Params: p, Elapsed: elapsed}, nil
		},
	})
}
