package platform

import (
	"errors"
	"fmt"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/trace"
)

// NodeData is the user-supplied per-node state (the thesis' node_data
// plug-in). A run holds each value as the node function's type (Node) and
// boxes it only for InitData, a checkpoint and the final gather. What a
// value refers to is shared, not copied, by the exchange, task migration
// and the gather, so nothing may write through it (see Node). SizeBytes
// reports the serialized size charged to the communication cost model.
type NodeData interface {
	SizeBytes() int
}

// IntData is the simple integer node data used by the thesis' generic
// graph topologies (struct node_data { int data; ... }).
type IntData int64

// SizeBytes implements NodeData.
func (d IntData) SizeBytes() int { return 8 }

// Neighbor pairs a neighbor's global node ID with that neighbor's data
// from the previous iteration. The slice passed to the node function plays
// the role of the thesis' linked list "with the current node's data as the
// head followed by the data of its neighbors". The platform recycles the
// slice between invocations, so a node function must not retain it beyond
// the call.
type Neighbor[T NodeData] struct {
	ID   graph.NodeID
	Data T
}

// NodeFunc is the application node computation function (the thesis'
// SimulatorFunction plug-in, invoked through a function pointer by the
// platform's Compute Over Nodes routine), made by Node; Run and
// RunSequential dispatch through it to code compiled for its value type.
type NodeFunc interface {
	build(c *Config, lay *Layout, ranks []rankState) error
	empty() rankValues // a rank's values before its first node arrives
	gather(s *rankState) ([]NodeData, error)
	sequential(c *Config) ([]NodeData, error)
}

// Node makes f the node function of a run whose values are of type T. f
// receives the node's own data and its neighbors' previous-iteration data
// and returns the node's new data plus the virtual compute cost in seconds
// (the thesis injects grain with dummy loops; here the grain is returned
// so the virtual clock can charge it).
//
// iter counts iterations from 1 as in the thesis' main loop; sub is the
// sub-phase index within an iteration (always 0 unless Config.SubPhases >
// 1, which the battlefield simulation uses because "the computation and
// communication function sequence is called more than once").
//
// The neighbors slice is only valid for the duration of the call: the
// platform (and RunSequential) recycles it between invocations, so an
// implementation must not retain it and copies what it wants to keep.
//
// What self and every neighbor's Data refer to is shared with other ranks
// and must not be written; in return f may return self when the node's
// value does not change, and a new value may share memory with self: the
// platform never writes a value either. A nil result of a pointer or
// interface T is refused, as is an InitData value that is not a T.
func Node[T NodeData](f func(id graph.NodeID, iter, sub int, self T, neighbors []Neighbor[T]) (T, float64)) NodeFunc {
	if f == nil {
		return nil
	}
	return nodeFunc[T](f)
}

// ErrDataType is the error of a value whose dynamic type is not the node
// function's: an InitData result, or a node value of a resumed snapshot.
var ErrDataType = errors.New("node data is not of the node function's type")

// Pair is one busy/idle processor pair selected by the load balancer.
type Pair struct {
	Busy, Idle int
}

// ProcGraph is the weighted processor network graph handed to the load
// balancer: "the execution time of the processors for a specific number of
// iterations represents the weight on the nodes and the weight of the edge
// connecting two processors is the amount of communication between the
// two, estimated by the length of the communication buffers".
type ProcGraph struct {
	// Times[p] is processor p's computation time since the last balancing.
	Times []float64
	// Comm[p][q] is the combined shadow-buffer length between p and q
	// (symmetric, zero diagonal).
	Comm [][]int
}

// Balancer decides which processors should shed work. It is the thesis'
// third-party dynamic load balancer plug-in point; the platform executes
// the actual task migration.
type Balancer interface {
	Name() string
	// Plan returns busy->idle pairs. An empty plan means no substantial
	// imbalance.
	Plan(pg ProcGraph) []Pair
}

// LoadSample is one balancing invocation's load record: the per-processor
// compute times rank 0 gathered for the balancer, the processors'
// effective speed factors at that iteration, and the derived imbalance
// (max/mean, the same statistic internal/trace reports). The platform
// captures samples from state it already holds at the balancing
// collective — no extra communication — so recording history never moves
// the virtual clock and traced, checkpointed and plain runs stay
// byte-identical.
type LoadSample struct {
	// Iter is the iteration the balancing invocation ran at (1-based).
	Iter int
	// Times[p] is processor p's compute time over the preceding window.
	Times []float64
	// Speeds[p] is processor p's execution-time multiplier at Iter (1 on
	// homogeneous machines; >1 means slower under fault injection).
	Speeds []float64
	// Imbalance is max(Times)/mean(Times), or 0 when the window did no
	// compute.
	Imbalance float64
}

// HistoryBalancer is an optional Balancer extension: implementations
// receive the run's recent balancing history alongside the processor
// graph. The platform keeps a bounded window (most recent last) on rank 0
// and passes it read-only — implementations must not retain or mutate the
// slice. Plans must remain a pure function of (pg, hist) so the kernel
// equivalence and checkpoint-resume properties hold.
type HistoryBalancer interface {
	Balancer
	PlanWithHistory(pg ProcGraph, hist []LoadSample) []Pair
}

// Phase identifies one of the six platform phases whose overheads Figures
// 21 and 22 break down.
type Phase int

const (
	// PhaseInit covers setting up graph connectivity, node lists, data
	// lists and hash tables.
	PhaseInit Phase = iota
	// PhaseComputeOverhead covers forming node+neighbor lists for the node
	// function and updating data lists after computation.
	PhaseComputeOverhead
	// PhaseCompute is the actual node computation (the grain).
	PhaseCompute
	// PhaseCommOverhead covers packing and unpacking communication buffers
	// and updating the data lists from received shadows.
	PhaseCommOverhead
	// PhaseCommunicate is the send/receive of shadow node information.
	PhaseCommunicate
	// PhaseLoadBalance covers gathering imbalance statistics and task
	// migration.
	PhaseLoadBalance

	// NumPhases is the number of instrumented phases.
	NumPhases = int(PhaseLoadBalance) + 1
)

// String implements fmt.Stringer with the labels of Figures 21-22.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "Initialization"
	case PhaseComputeOverhead:
		return "Computation Overhead"
	case PhaseCompute:
		return "Compute"
	case PhaseCommOverhead:
		return "Communication Overhead"
	case PhaseCommunicate:
		return "Communicate"
	case PhaseLoadBalance:
		return "Load Balancing & Task Migration"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// The platform's bookkeeping work is priced on the virtual clock by five
// costs in seconds; they are what Figures 21-22 measure. They are
// calibrated so the phase breakdown of a fine-grained 64-node run matches
// the shape of Figures 21-22: communication overhead (packing and, above
// all, the linear data-node-list scans the thesis performs per received
// shadow update) is the dominant platform overhead, and compute/computation
// overhead shrink with the processor count.
const (
	// initPerEntry is charged during initialization per node-list, data
	// node and hash-table entry created.
	initPerEntry = 4e-6
	// listPerNeighbor is charged per element when forming the node +
	// neighbors list handed to the node function.
	listPerNeighbor = 1.5e-6
	// updatePerNode is charged per own node when writing back
	// most_recent_data after computation.
	updatePerNode = 1e-6
	// packPerNode is charged per (node, destination) pair when packing
	// updated peripheral data into communication buffers.
	packPerNode = 45e-6
	// unpackPerNode is charged per received shadow node when updating the
	// data lists after communication.
	unpackPerNode = 55e-6
)

// Host is a run's host-only attachments: values that change what the host
// does and never a byte of the run's Result, Stats, trace or report, nor a
// sweep cell's key. Config and scenario.Params embed it, so each is
// declared once and handed down whole.
type Host struct {
	// KernelWorkers sets the worker count for mpi.KernelGoroutine and
	// mpi.KernelParallelEvent (0 means min(GOMAXPROCS, Procs)); ignored by
	// mpi.KernelEvent, which is always one worker.
	// A host-side tuning knob only: results are identical at any value.
	KernelWorkers int
	// CheckpointEvery, when > 0, captures a RunSnapshot at the end of
	// every CheckpointEvery-th iteration (except the last — a completed
	// run has nothing to resume) and hands it to CheckpointSink. Capture
	// is host-side only: iteration boundaries are message-quiescent, so
	// each rank contributes its state as it passes the boundary and the
	// virtual timeline is identical with checkpointing on or off.
	CheckpointEvery int
	// CheckpointSink receives each completed snapshot. It runs on the
	// last contributing rank's host goroutine; returning an error aborts
	// the run.
	CheckpointSink func(*RunSnapshot) error
	// ResumeFrom, when non-nil, restores the run from a snapshot instead
	// of initializing: every rank's clocks, stats, node data, bookkeeping
	// and trace rows are reloaded and iteration ResumeFrom.Iter+1 runs
	// next. The resumed run's Result, Stats and trace are byte-identical
	// to the uninterrupted run's. The snapshot must come from an
	// identically configured run (validated, never assumed).
	ResumeFrom *RunSnapshot
	// Trace, when non-nil, records per-iteration telemetry — per-processor
	// compute/communicate/idle virtual time, message counters, migration
	// events and the live edge-cut — into the given recorder. Tracing is
	// host-side only: it never charges virtual time, so traced and
	// untraced runs have identical timelines. A nil Trace costs one branch
	// per iteration.
	Trace *trace.Recorder
	// Stop, once closed, ends the run at each rank's next iteration
	// boundary with an error that is mpi.ErrStopped (mpi.Options.Stop).
	Stop <-chan struct{}
}

// Config describes one platform run. Graph, InitialPartition, InitData and
// Node are the user plug-ins, Host the host-only attachments; everything
// else tunes the platform. A run only reads Graph, InitialPartition,
// Layout and the values InitData returns, so callers may share them across
// concurrent runs (scenario.Inputs does).
type Config struct {
	// Graph is the application program graph.
	Graph *graph.Graph
	// Procs is the number of (virtual) processors.
	Procs int
	// InitialPartition maps every node to a processor in [0, Procs); the
	// output of a static graph partitioner.
	InitialPartition []int
	// Layout, when non-nil, is NewLayout(Graph, InitialPartition, Procs) of
	// this very graph and partition slice, shared by the runs of one
	// partition; nil builds one for the run.
	Layout *Layout
	// InitData returns node v's initial data (the thesis initializes
	// data = globalID in InitializeGlobalDataList).
	InitData func(graph.NodeID) NodeData
	// Node is the application node computation function.
	Node NodeFunc
	// Iterations is the number of outer iterations (time steps).
	Iterations int
	// SubPhases is the number of compute+communicate rounds per iteration
	// (default 1; the battlefield simulation uses 2).
	SubPhases int
	// Overlap selects the Fig. 8a variant: peripheral nodes first, then
	// internal-node computation overlapped with shadow communication.
	Overlap bool
	// Balancer enables dynamic load balancing when non-nil.
	Balancer Balancer
	// BalanceEvery is the load-balancing period in iterations (default 10,
	// the thesis' setting).
	BalanceEvery int
	// DisableMigrationGuard turns off the overshoot/benefit filter applied
	// to planned migrations (see loadBalance). Tests that script exact
	// migration sequences disable the guard; production runs keep it.
	DisableMigrationGuard bool
	// BalanceRounds bounds the plan+migrate rounds per balancing
	// invocation. 1 (the default) is the thesis' protocol — at most one
	// task per busy/idle pair per invocation; larger values enable the
	// Section 7 extension where an overloaded processor sheds several
	// tasks in one invocation, re-planning against estimated
	// post-migration times.
	BalanceRounds int
	// Network is the interconnect model the execution runs on: message
	// wire cost is priced per (src, dst) pair — hop count over the
	// processor network graph for the topology-backed models — and node
	// computation scales with the owning processor's relative Speed. This
	// is the paper's processor-network-graph plug-in point. nil selects a
	// uniform machine with the Origin 2000 base costs
	// (netmodel.NewUniform(netmodel.Origin2000())).
	Network netmodel.Model
	// Kernel names the worker count of the mpi engine, which runs ranks as
	// passive states resumed in wake order by a scheduler on one or
	// several host workers: mpi.KernelGoroutine (the default) and
	// mpi.KernelParallelEvent run KernelWorkers workers, mpi.KernelEvent
	// runs one. Every name is bit-identical in virtual time.
	Kernel mpi.Kernel
	// SkipFinalGather disables gathering final node data into
	// Result.FinalData (large sweeps skip the gather to save memory;
	// callers verifying results against the sequential reference keep it).
	// Without the gather no rank waits at the last barrier: Run settles it
	// after the ranks return, with the same clocks and idle time.
	SkipFinalGather bool
	// CheckInvariants makes every processor validate its node lists, hash
	// table and shadow bookkeeping after every iteration and after every
	// migration. Meant for tests; adds O(nodes) host work per iteration
	// but no virtual time.
	CheckInvariants bool
	Host
}

// check validates the fields every run reads, distributed or sequential:
// Graph, Procs, Node, InitData and Iterations.
func (c *Config) check() error {
	switch {
	case c.Graph == nil:
		return fmt.Errorf("platform: Config.Graph is required")
	case c.Procs < 1:
		return fmt.Errorf("platform: Procs must be >= 1, got %d", c.Procs)
	case c.Node == nil:
		return fmt.Errorf("platform: Config.Node is required")
	case c.InitData == nil:
		return fmt.Errorf("platform: Config.InitData is required")
	case c.Iterations < 0:
		return fmt.Errorf("platform: Iterations must be >= 0, got %d", c.Iterations)
	}
	return nil
}

// normalize fills defaults and validates the configuration.
func (c *Config) normalize() (*Config, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	lay := c.Layout
	if lay == nil {
		var err error
		if lay, err = NewLayout(c.Graph, c.InitialPartition, c.Procs); err != nil {
			return nil, err
		}
	} else if !lay.builtFor(c) {
		return nil, fmt.Errorf("platform: Config.Layout was built for another graph, partition or processor count")
	}
	if c.CheckpointEvery < 0 {
		return nil, fmt.Errorf("platform: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	out := *c
	out.Layout = lay
	if out.SubPhases <= 0 {
		out.SubPhases = 1
	}
	if out.BalanceEvery <= 0 {
		out.BalanceEvery = 10
	}
	if out.Network == nil {
		out.Network = netmodel.NewUniform(netmodel.Origin2000())
	}
	if err := out.Network.Validate(out.Procs); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return &out, nil
}

// Result reports one platform run.
type Result struct {
	// Elapsed is the end-to-end time: the maximum virtual completion time
	// across processors.
	Elapsed float64
	// PhaseTimes[phase][proc] breaks Elapsed into the six platform phases
	// per processor.
	PhaseTimes [NumPhases][]float64
	// FinalData holds every node's data after the last iteration (nil when
	// Config.SkipFinalGather).
	FinalData []NodeData
	// FinalPartition is the node-to-processor map after dynamic load
	// balancing (equal to the initial partition for static runs). It is the
	// caller's to keep: a copy of rank 0's map, never Config.InitialPartition
	// itself.
	FinalPartition []int
	// Migrations counts executed task migrations.
	Migrations int
	// Stats aggregates per-processor message counters.
	Stats []mpi.Stats
}

// MaxPhase returns the maximum per-processor time of one phase, the value
// Figures 21-22 plot.
func (r *Result) MaxPhase(p Phase) float64 {
	max := 0.0
	for _, t := range r.PhaseTimes[p] {
		if t > max {
			max = t
		}
	}
	return max
}
