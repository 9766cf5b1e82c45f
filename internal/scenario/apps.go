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

// alive and dead are the Game of Life cell states (life scenario data is
// platform.IntData holding one of the two).
const (
	dead  platform.IntData = 0
	alive platform.IntData = 1
)

// lifeRows and lifeCols are the life scenario's grid dimensions.
const (
	lifeRows = 16
	lifeCols = 16
)

// lifeInit is the life scenario's deterministic primordial soup: roughly
// 3/8 of the cells start alive, chosen by a fixed multiplicative hash of
// the cell ID so every run (and every processor count) starts identically.
func lifeInit(id graph.NodeID) platform.NodeData {
	x := uint64(id+1) * 0x9E3779B97F4A7C15
	if x>>61 < 3 {
		return alive
	}
	return dead
}

// lifeNode is Conway's rule over the Moore neighborhood: a live cell
// survives with two or three live neighbors, a dead cell is born with
// exactly three. Cells on the grid boundary simply see fewer neighbors
// (hard walls).
func lifeNode(id graph.NodeID, iter, sub int, self platform.IntData, nbrs []platform.Neighbor[platform.IntData]) (platform.IntData, float64) {
	live := 0
	for _, nb := range nbrs {
		if nb.Data == alive {
			live++
		}
	}
	next := dead
	if live == 3 || (live == 2 && self == alive) {
		next = alive
	}
	return next, 0.1e-3
}

// unreachable is the sssp scenario's infinite distance sentinel.
const unreachable platform.IntData = 1 << 30

// ssspSource is the sssp scenario's source vertex.
const ssspSource graph.NodeID = 0

// ssspInit initializes the source distance to zero and every other node
// to unreachable.
func ssspInit(id graph.NodeID) platform.NodeData {
	if id == ssspSource {
		return platform.IntData(0)
	}
	return unreachable
}

// ssspNode is one Bellman-Ford relaxation step over unit edge weights:
// each node takes the minimum of its own distance and its neighbors'
// previous-iteration distances plus one. After diameter-many iterations
// every distance equals the BFS hop count from ssspSource.
func ssspNode(id graph.NodeID, iter, sub int, self platform.IntData, nbrs []platform.Neighbor[platform.IntData]) (platform.IntData, float64) {
	best := self
	for _, nb := range nbrs {
		if d := nb.Data; d < unreachable && d+1 < best {
			best = d + 1
		}
	}
	return best, workload.FineGrain
}

// pageRankDamping is the damping factor of the pagerank-bsp scenario.
const pageRankDamping = 0.85

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

// pageRankBSPRun runs iters PageRank supersteps over g on the opts.Procs
// BSP processes of opts (block vertex distribution, one Put per edge per
// superstep; a nil opts.Cost ships the h-relations for free), and returns
// the final ranks plus the maximum virtual completion time across
// processes. Deterministic for a fixed (g, iters, opts) at any kernel name
// and worker count. A non-nil rec records one trace sample per (superstep,
// process): the scatter loop as compute, Sync as communicate.
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
				local[i] = (1 - pageRankDamping) / float64(n)
			}
			for _, m := range in {
				local[m.Tag-lo] += pageRankDamping * m.Payload.(float64)
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

func init() {
	// heat: a hot spot (+1.0) at the mesh's first node and a cold spot
	// (-1.0) at its last hold their temperatures (a Dirichlet boundary);
	// every other node relaxes to the mean of its neighbors.
	const heatRows, heatCols = 16, 16
	hot, cold := graph.NodeID(0), graph.NodeID(heatRows*heatCols-1)
	Register(Scenario{
		Name:        "heat",
		Description: "2-D heat diffusion on a 16x16 hex mesh with a user-defined fixed-point NodeData type",
		Stresses:    "user-defined NodeData crossing processor boundaries; bitwise agreement with the sequential reference",
		Graph:       func() (*graph.Graph, error) { return graph.HexGrid(heatRows, heatCols) },
		InitData: func(id graph.NodeID) platform.NodeData {
			switch id {
			case hot:
				return Temp(1_000_000) // 1.0 in micro-units
			case cold:
				return Temp(-1_000_000)
			default:
				return Temp(0)
			}
		},
		Node: func(*graph.Graph) platform.NodeFunc {
			return platform.Node(func(id graph.NodeID, iter, sub int, self Temp, nbrs []platform.Neighbor[Temp]) (Temp, float64) {
				if id == hot || id == cold {
					return self, 0.1e-3
				}
				var sum Temp
				for _, nb := range nbrs {
					sum += nb.Data
				}
				return sum / Temp(len(nbrs)), 0.1e-3
			})
		},
		Iterations: 100,
		Defaults:   Params{Partitioner: "metis"},
	})

	Register(Scenario{
		Name:        "life",
		Description: "Conway's Game of Life on a 16x16 Moore-neighborhood grid from a deterministic soup",
		Stresses:    "8-neighbor stencils on a non-hex topology and the geometric partitioners (grid coordinates)",
		Graph:       func() (*graph.Graph, error) { return graph.Grid(lifeRows, lifeCols, true) },
		InitData:    lifeInit,
		Node:        func(*graph.Graph) platform.NodeFunc { return platform.Node(lifeNode) },
		Iterations:  30,
	})

	Register(Scenario{
		Name:        "sssp",
		Description: "single-source shortest paths (Bellman-Ford relaxation) on the 96-node hexagonal grid",
		Stresses:    "data-dependent convergence: the wavefront touches few nodes early, the whole graph late",
		Graph:       func() (*graph.Graph, error) { return graph.PaperHexGrid(96) },
		InitData:    ssspInit,
		Node:        func(*graph.Graph) platform.NodeFunc { return platform.Node(ssspNode) },
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
