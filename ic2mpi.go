// Package ic2mpi is a platform for parallel execution of graph-structured
// iterative computations — a from-scratch Go reproduction of the iC2mpi
// system (Botadra, Georgia State University, 2006; IPPS 2007 workshop
// version).
//
// The platform parallelizes applications whose state lives on the nodes of
// a fixed graph and whose per-iteration node update depends only on the
// node and its neighbors: time-stepped simulations, mesh codes, cellular
// automata. A user plugs in three things and writes no message-passing
// code at all:
//
//   - the application program graph (ic2mpi.Graph, typically from a
//     generator or a Chaco-format file),
//   - the node data structure (any type implementing NodeData),
//   - the node computation function (NodeFunc).
//
// Static partitioners (a Metis-style multilevel partitioner, a
// PaGrid-style network-aware mapper, geometric band partitioners, a
// gray-code mesh-to-hypercube embedding) and dynamic load balancers (the
// thesis' centralized 25%-threshold heuristic, diffusion, work-stealing,
// hierarchical and predictive strategies) are pluggable, making the
// platform a test bed for partitioning and load-balancing research —
// exactly the role the paper proposes.
//
// Execution runs on an in-process SPMD message-passing runtime with
// deterministic virtual time, so 16-processor speedup experiments
// reproduce bit-for-bit on any host; see docs/architecture.md for the
// substitution rationale.
//
// Quick start:
//
//	g, _ := ic2mpi.HexGrid(8, 8)
//	part, _ := ic2mpi.NewMetis(1).Partition(g, nil, 4)
//	res, _ := ic2mpi.Run(ic2mpi.Config{
//		Graph:            g,
//		Procs:            4,
//		InitialPartition: part,
//		InitData:         func(id ic2mpi.NodeID) ic2mpi.NodeData { return ic2mpi.IntData(int64(id)) },
//		Node: func(id ic2mpi.NodeID, iter, sub int, self ic2mpi.NodeData, nbrs []ic2mpi.Neighbor) (ic2mpi.NodeData, float64) {
//			sum := int64(self.(ic2mpi.IntData))
//			for _, nb := range nbrs {
//				sum += int64(nb.Data.(ic2mpi.IntData))
//			}
//			return ic2mpi.IntData(sum / int64(len(nbrs)+1)), 0.3e-3
//		},
//		Iterations: 20,
//	})
package ic2mpi

import (
	"io"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/topology"
	"ic2mpi/internal/trace"
)

// Core platform types, re-exported from the internal implementation.
type (
	// NodeID identifies a vertex of the application program graph.
	NodeID = graph.NodeID
	// Graph is the application program graph.
	Graph = graph.Graph
	// Coord is a planar hex/mesh coordinate attached to graph vertices.
	Coord = graph.Coord
	// NodeData is the user-supplied per-node state.
	NodeData = platform.NodeData
	// IntData is a ready-made integer NodeData.
	IntData = platform.IntData
	// Neighbor pairs a neighbor ID with its previous-iteration data.
	Neighbor = platform.Neighbor
	// NodeFunc is the application node computation function.
	NodeFunc = platform.NodeFunc
	// Config describes one platform run.
	Config = platform.Config
	// Result reports one platform run.
	Result = platform.Result
	// Phase identifies one of the six instrumented platform phases.
	Phase = platform.Phase
	// Balancer is the dynamic load balancer plug-in interface.
	Balancer = platform.Balancer
	// Pair is one busy/idle processor pair chosen by a balancer.
	Pair = platform.Pair
	// ProcGraph is the weighted processor graph handed to balancers.
	ProcGraph = platform.ProcGraph
	// Partitioner is the static graph partitioner plug-in interface.
	Partitioner = partition.Partitioner
	// PartitionQuality reports edge-cut and balance of a partition.
	PartitionQuality = partition.Quality
	// Network is a weighted processor network graph (speeds + link costs).
	Network = topology.Network
	// NetworkModel is the pluggable interconnect model that prices
	// point-to-point messages per rank pair (Config.Network).
	NetworkModel = netmodel.Model
	// CostModel is the LogGP base parameterization interconnect models
	// scale per rank pair.
	CostModel = netmodel.LogGP
	// TimeVaryingModel extends NetworkModel for machines that evolve over
	// the run in iteration epochs (fault injection).
	TimeVaryingModel = netmodel.TimeVarying
	// FaultSchedule is one deterministic perturbation plan: seeded
	// per-processor brownouts, link degradation and a background-load
	// ramp (see internal/fault).
	FaultSchedule = fault.Schedule
	// TraceRecorder collects per-iteration run telemetry when attached via
	// Config.Trace: per-processor compute/communicate/idle time, message
	// counters, task migrations, load imbalance and live edge-cut.
	TraceRecorder = trace.Recorder
	// TraceSample is one (iteration, processor) telemetry record.
	TraceSample = trace.Sample
	// TraceMigration is one executed task migration event.
	TraceMigration = trace.Migration
	// TraceDerived is the per-iteration imbalance/edge-cut series entry.
	TraceDerived = trace.Derived
	// Kernel selects the mpi execution engine (Config.Kernel).
	Kernel = mpi.Kernel
)

// Platform phase identifiers (Figures 21-22 of the paper).
const (
	// PhaseInit covers graph connectivity, node list, data list and hash
	// table setup.
	PhaseInit = platform.PhaseInit
	// PhaseComputeOverhead covers forming node+neighbor lists and writing
	// back results around the node function.
	PhaseComputeOverhead = platform.PhaseComputeOverhead
	// PhaseCompute is the application node computation itself (the grain).
	PhaseCompute = platform.PhaseCompute
	// PhaseCommOverhead covers packing and unpacking shadow-node buffers.
	PhaseCommOverhead = platform.PhaseCommOverhead
	// PhaseCommunicate is the send/receive of shadow node information.
	PhaseCommunicate = platform.PhaseCommunicate
	// PhaseLoadBalance covers imbalance statistics and task migration.
	PhaseLoadBalance = platform.PhaseLoadBalance
	// NumPhases is the number of instrumented phases.
	NumPhases = platform.NumPhases
)

// Execution kernels (Config.Kernel). There is one engine: ranks are
// passive states with flat per-rank memory that a scheduler resumes in
// wake order, on workers that synchronize only when every one has run out
// of runnable ranks. The names pick its worker count, and every name and
// count gives the same bytes.
const (
	// KernelGoroutine is the default: min(GOMAXPROCS, procs) workers, or
	// Config.KernelWorkers. The name once meant one goroutine per rank,
	// the engine every pinned table and golden trace was recorded on.
	KernelGoroutine = mpi.KernelGoroutine
	// KernelEvent runs one worker, whatever Config.KernelWorkers says.
	KernelEvent = mpi.KernelEvent
	// KernelParallelEvent runs min(GOMAXPROCS, procs) workers, or
	// Config.KernelWorkers, like KernelGoroutine; at one worker it is
	// KernelEvent.
	KernelParallelEvent = mpi.KernelParallelEvent
)

// ParseKernel resolves a kernel name (see mpi.KernelNames; "" selects the
// default, KernelGoroutine) to a Kernel.
func ParseKernel(name string) (Kernel, error) { return mpi.ParseKernel(name) }

// Run executes the platform on cfg and blocks until every virtual
// processor finishes.
func Run(cfg Config) (*Result, error) { return platform.Run(cfg) }

// RunSequential executes the same iterative computation in a single
// address space — the reference implementation distributed runs are
// verified against.
func RunSequential(cfg Config) ([]NodeData, error) { return platform.RunSequential(cfg) }

// WriteTrace encodes a trace recorded through Config.Trace as "jsonl" or
// "csv"; the encoding is byte-identical for identical runs.
func WriteTrace(w io.Writer, format string, rec *TraceRecorder) error {
	return trace.Write(w, format, rec)
}

// Origin2000 returns the base communication cost parameters calibrated
// against the paper's SGI Origin 2000 testbed.
func Origin2000() CostModel { return netmodel.Origin2000() }

// Graph construction.

// HexGrid returns a rows x cols hexagonal grid (odd-r offset coordinates,
// up to six neighbors per cell).
func HexGrid(rows, cols int) (*Graph, error) { return graph.HexGrid(rows, cols) }

// RandomGraph returns a connected random graph with n vertices, extra-edge
// probability p and a deterministic seed.
func RandomGraph(n int, p float64, seed int64) (*Graph, error) { return graph.Random(n, p, seed) }

// ReadChaco parses an application program graph in the Chaco/Metis file
// format the thesis feeds to its partitioners.
func ReadChaco(r io.Reader) (*Graph, error) { return graph.ReadChaco(r) }

// WriteChaco writes a graph in Chaco format. code is the Chaco fmt field:
// 0 plain, 1 edge weights, 10 vertex weights, 11 both.
func WriteChaco(w io.Writer, g *Graph, code int) error {
	return graph.WriteChaco(w, g, graph.FmtCode(code))
}

// Static partitioners.

// NewMetis returns the Metis-style multilevel k-way partitioner.
func NewMetis(seed int64) Partitioner { return &partition.Multilevel{Seed: seed} }

// NewPaGrid returns the PaGrid-style network-aware mapper. rref is the
// communication/computation ratio; the paper uses 0.45.
func NewPaGrid(rref float64, seed int64) Partitioner {
	return &partition.PaGrid{Rref: rref, Seed: seed}
}

// RowBand returns the horizontal band partitioner (requires coordinates).
func RowBand() Partitioner { return partition.RowBand{} }

// ColumnBand returns the vertical band partitioner.
func ColumnBand() Partitioner { return partition.ColumnBand{} }

// RectBand returns the rectangular tile partitioner.
func RectBand() Partitioner { return partition.RectBand{} }

// BFPartition returns the fine-grained gray-code mesh-to-hypercube
// embedding of the original battlefield simulator.
func BFPartition() Partitioner { return partition.BFGrayCode{} }

// RCB returns the recursive-coordinate-bisection geometric partitioner.
func RCB() Partitioner { return partition.RCB{} }

// ReadCoords parses a Chaco-style coordinates sidecar file with one
// "row col" line per vertex.
func ReadCoords(r io.Reader, n int) ([]Coord, error) { return graph.ReadCoords(r, n) }

// WriteCoords writes a graph's coordinates in the sidecar format.
func WriteCoords(w io.Writer, g *Graph) error { return graph.WriteCoords(w, g) }

// AttachHexCoords assigns row-major hex-grid coordinates to a graph read
// from a Chaco file, enabling the geometric partitioners.
func AttachHexCoords(g *Graph, rows, cols int) error { return graph.AttachHexCoords(g, rows, cols) }

// EvaluatePartition reports the edge-cut and balance of a partition.
func EvaluatePartition(g *Graph, part []int, k int) (PartitionQuality, error) {
	return partition.Evaluate(g, part, k)
}

// Processor networks and interconnect models.

// Hypercube returns a homogeneous hypercube processor network (link cost =
// Hamming distance), the paper's Origin 2000 interconnect.
func Hypercube(procs int) (*Network, error) { return topology.Hypercube(procs) }

// Mesh2D returns a homogeneous 2-D mesh processor network (link cost =
// Manhattan distance on a near-square grid).
func Mesh2D(procs int) (*Network, error) { return topology.Mesh2D(procs) }

// FatTree returns a homogeneous fat-tree processor network (link cost =
// switch hops through the lowest common ancestor).
func FatTree(procs, arity int) (*Network, error) { return topology.FatTree(procs, arity) }

// HeterogeneousGrid returns a two-cluster computational grid with slow
// processors and expensive wide-area links, the environment PaGrid
// targets.
func HeterogeneousGrid(procs int, slowFactor, wanCost float64) (*Network, error) {
	return topology.HeterogeneousGrid(procs, slowFactor, wanCost)
}

// NetworkModels returns the interconnect model names NewNetworkModel
// accepts ("uniform", "hypercube", "mesh2d", "fattree", "hetgrid").
func NetworkModels() []string { return netmodel.Names() }

// NewNetworkModel resolves an interconnect model name to a machine over
// procs processors with the Origin 2000 base costs, for Config.Network.
func NewNetworkModel(name string, procs int) (NetworkModel, error) {
	return netmodel.New(name, procs)
}

// UniformModel returns the flat interconnect: every rank pair pays the
// same base cost, the seed system's single simulated machine.
func UniformModel(base CostModel) NetworkModel { return netmodel.NewUniform(base) }

// TopologyModel prices messages on an explicit processor network graph:
// wire cost scales with the graph's per-pair link cost and computation
// with per-processor Speed.
func TopologyModel(net *Network, base CostModel) (NetworkModel, error) {
	return netmodel.NewTopology(net, base)
}

// Deterministic fault injection.

// Perturbations returns the named perturbation schedule specs
// PerturbNetwork accepts ("none", "brownout", "links", "ramp", "chaos"),
// each optionally suffixed "@<seed>" to reseed it.
func Perturbations() []string { return fault.Names() }

// ParsePerturbation resolves a perturbation spec to its schedule; "none"
// and "" resolve to nil (no perturbation).
func ParsePerturbation(spec string) (*FaultSchedule, error) { return fault.Parse(spec) }

// PerturbNetwork wraps an interconnect model in the named deterministic
// fault-injection schedule, bound to a run of iters iterations on procs
// processors: per-processor speed brownouts, per-link degradation and a
// background-load ramp, all pure functions of (seed, iteration, rank).
// The spec "none" (or "") returns model unchanged.
func PerturbNetwork(model NetworkModel, spec string, procs, iters int) (NetworkModel, error) {
	sched, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	if sched == nil {
		return model, nil
	}
	return fault.Wrap(model, sched, procs, iters)
}

// PerturbNetworkSchedule is PerturbNetwork for a hand-built schedule.
func PerturbNetworkSchedule(model NetworkModel, s *FaultSchedule, procs, iters int) (NetworkModel, error) {
	return fault.Wrap(model, s, procs, iters)
}

// Dynamic load balancing.

// Balancers returns the balancer names NewBalancer accepts, the values of
// the scenario balancer axis.
func Balancers() []string { return balance.Names() }

// NewBalancer resolves a balancer name to a balancer for Config.Balancer,
// for a run on the named interconnect at procs processors; "none" resolves
// to nil (static run). Only "hierarchical" reads network and procs, to
// derive its cluster map; "" or procs < 1 leave it on contiguous rank
// blocks. "centralized" is the thesis' 25%-threshold heuristic.
func NewBalancer(name, network string, procs int) (Balancer, error) {
	return balance.New(name, network, procs)
}
