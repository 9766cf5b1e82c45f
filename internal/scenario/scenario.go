package scenario

import (
	"fmt"
	"slices"

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

// Exchange modes selectable through Params.Exchange.
const (
	// ExchangeBasic is the Fig. 8 protocol: compute all nodes, then
	// exchange shadow updates.
	ExchangeBasic = "basic"
	// ExchangeOverlap is the Fig. 8a variant: peripheral nodes first, then
	// internal-node computation overlapped with communication.
	ExchangeOverlap = "overlap"
)

// BuffersPooled is the one value of Params.Buffers: the platform owns and
// recycles its exchange buffers. The field, the sweep axis and the CellKey
// component outlive the allocate-per-round mode they used to select, so
// that keys, reports and manifests written before it was retired still
// read the same.
const BuffersPooled = "pooled"

// Params selects one point of a scenario's configuration space. The zero
// value of every field means "use the scenario's default"; the sweep
// engine enumerates explicit values along each axis.
type Params struct {
	// Procs is the number of virtual processors.
	Procs int `json:"procs"`
	// Partitioner names the static partitioner; see partition.Names for
	// the accepted names.
	Partitioner string `json:"partitioner"`
	// Exchange is ExchangeBasic or ExchangeOverlap.
	Exchange string `json:"exchange"`
	// Buffers is BuffersPooled.
	Buffers string `json:"buffers"`
	// Balancer names the dynamic load balancer; see balance.Names for the
	// accepted names ("none" disables balancing).
	Balancer string `json:"balancer"`
	// Network names the interconnect model the run executes on; see
	// netmodel.Names for the accepted names. Platform scenarios default
	// to "hypercube" — the paper's Origin 2000 CRAYlink machine, and the
	// machine every pinned docgen table and golden trace was measured on.
	// Custom-runner scenarios default to their own built-in machine
	// (serialized as ""): pagerank-bsp charges computation but ships
	// h-relations for free unless a model is named explicitly.
	Network string `json:"network"`
	// Perturb names the deterministic fault-injection schedule applied to
	// the run's machine; see fault.Names for the accepted specs ("none",
	// "brownout", "links", "ramp", "chaos", each optionally suffixed
	// "@<seed>"). "none" — the default — runs the static machine, with
	// the exact pre-fault-injection timeline. Custom-runner scenarios do
	// not support perturbation.
	Perturb string `json:"perturb"`
	// Iterations is the number of outer iterations (time steps).
	Iterations int `json:"iterations"`
	// Kernel names the worker count of the mpi engine, whose scheduler
	// resumes ranks in wake order on one or several host workers:
	// "goroutine" (the default) and "pevent" run KernelWorkers workers,
	// "event" runs one. Every name gives the same bytes; all three stay
	// accepted and echoed because they are part of persisted CellKeys.
	// See mpi.KernelNames.
	Kernel string `json:"kernel"`
	// KernelWorkers sets the "goroutine" and "pevent" kernels' worker
	// count (0 means min(GOMAXPROCS, procs)); ignored by "event". A
	// host-side tuning knob, not a simulation parameter — results are
	// identical at any value — so it is excluded from serialized reports
	// and CellKey.
	KernelWorkers int `json:"-"`
	// BalanceEvery is the balancing period in iterations.
	BalanceEvery int `json:"-"`
	// BalanceRounds bounds plan+migrate rounds per balancing invocation.
	BalanceRounds int `json:"-"`
	// Trace, when non-nil, records per-iteration telemetry for the run
	// (see internal/trace). Tracing is host-side only — a traced run's
	// Result is identical to an untraced one — and the field is excluded
	// from serialized reports.
	Trace *trace.Recorder `json:"-"`
	// CheckpointEvery, CheckpointSink and ResumeFrom thread platform
	// checkpoint/restore through the scenario layer (see
	// platform.Config). Like Trace they are host-side run plumbing, not
	// part of the parameter space: excluded from serialized reports and
	// from CellKey, and unsupported by custom-runner scenarios.
	CheckpointEvery int                               `json:"-"`
	CheckpointSink  func(*platform.RunSnapshot) error `json:"-"`
	ResumeFrom      *platform.RunSnapshot             `json:"-"`
}

// Result is the flat, machine-readable outcome of one scenario run: the
// normalized parameters the run actually used plus the measured metrics.
// All times are deterministic virtual seconds, so identical (scenario,
// params) runs produce identical Results.
type Result struct {
	// Scenario is the scenario name.
	Scenario string `json:"scenario"`
	// Params echoes the normalized parameters of the run.
	Params Params `json:"params"`
	// Elapsed is the end-to-end virtual execution time in seconds.
	Elapsed float64 `json:"elapsed_s"`
	// EdgeCut is the initial partition's edge-cut (0 for custom runners).
	EdgeCut int `json:"edge_cut"`
	// Imbalance is the initial partition's load imbalance (1.0 perfect).
	Imbalance float64 `json:"imbalance"`
	// Migrations counts executed task migrations.
	Migrations int `json:"migrations"`
	// MessagesSent totals messages sent across all processors.
	MessagesSent int `json:"messages_sent"`
	// BytesSent totals payload bytes sent across all processors.
	BytesSent int `json:"bytes_sent"`
	// Phases holds the per-phase maximum processor time (indexed by
	// platform.Phase; nil for custom runners). Excluded from serialized
	// reports, which carry Elapsed only.
	Phases []float64 `json:"-"`
}

// Scenario bundles one named workload: the graph generator, the node data
// and computation plug-ins, and default execution parameters. Examples,
// benchmarks and the experiments sweep engine all resolve workloads from
// registered Scenarios.
type Scenario struct {
	// Name is the unique registry key (lower-case, stable).
	Name string
	// Description is a one-line summary shown by `cmd/experiments -list`.
	Description string
	// Stresses names the platform feature the scenario exercises, for
	// docs/scenarios.md.
	Stresses string
	// Graph generates the application program graph.
	Graph func() (*graph.Graph, error)
	// InitData returns a node's initial data.
	InitData func(graph.NodeID) platform.NodeData
	// Node builds the node computation function; the graph is passed so
	// schedules can depend on its size or geometry.
	Node func(g *graph.Graph) platform.NodeFunc
	// Iterations is the default iteration count.
	Iterations int
	// SubPhases is the number of compute+communicate rounds per iteration
	// (0 means 1; the battlefield uses 2).
	SubPhases int
	// Defaults overrides the package-wide parameter defaults (partitioner
	// metis, basic exchange, pooled buffers, no balancer).
	Defaults Params
	// Runner, when non-nil, replaces the platform execution path entirely
	// (the BSP scenarios use this). It receives normalized Params.
	Runner func(sc Scenario, p Params) (*Result, error)
}

// Normalize fills p's zero fields from the scenario's and the package's
// defaults and validates the enumerated fields, without running anything.
// Two parameter sets that Normalize to the same value select the same
// deterministic run — the property the daemon's result cache keys on
// (see experiments.CellKey).
func (sc Scenario) Normalize(p Params) (Params, error) {
	def := sc.Defaults
	if p.Procs == 0 {
		if p.Procs = def.Procs; p.Procs == 0 {
			p.Procs = 8
		}
	}
	if p.Procs < 1 {
		return p, fmt.Errorf("scenario %s: procs must be >= 1, got %d", sc.Name, p.Procs)
	}
	if p.Partitioner == "" {
		if p.Partitioner = def.Partitioner; p.Partitioner == "" {
			p.Partitioner = "metis"
		}
	}
	if p.Exchange == "" {
		if p.Exchange = def.Exchange; p.Exchange == "" {
			p.Exchange = ExchangeBasic
		}
	}
	if p.Buffers == "" {
		if p.Buffers = def.Buffers; p.Buffers == "" {
			p.Buffers = BuffersPooled
		}
	}
	if p.Buffers == "unpooled" {
		return p, fmt.Errorf("scenario %s: buffer mode \"unpooled\" was retired: its results were bit-identical to %q, which every run now uses; drop the value",
			sc.Name, BuffersPooled)
	}
	if p.Balancer == "" {
		if p.Balancer = def.Balancer; p.Balancer == "" {
			p.Balancer = "none"
		}
	}
	if p.Network == "" {
		if p.Network = def.Network; p.Network == "" && sc.Runner == nil {
			p.Network = netmodel.NameHypercube
		}
	}
	if p.Network != "" && !slices.Contains(netmodel.Names(), p.Network) {
		return p, fmt.Errorf("scenario %s: unknown network %q (known: %v)", sc.Name, p.Network, netmodel.Names())
	}
	if p.Perturb == "" {
		if p.Perturb = def.Perturb; p.Perturb == "" {
			p.Perturb = fault.NameNone
		}
	}
	if _, err := fault.Parse(p.Perturb); err != nil {
		return p, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.Runner != nil && p.Perturb != fault.NameNone {
		return p, fmt.Errorf("scenario %s: custom runner does not support perturbation %q", sc.Name, p.Perturb)
	}
	if p.CheckpointEvery < 0 {
		return p, fmt.Errorf("scenario %s: checkpoint period must be >= 0, got %d", sc.Name, p.CheckpointEvery)
	}
	if sc.Runner != nil && (p.CheckpointEvery > 0 || p.ResumeFrom != nil) {
		return p, fmt.Errorf("scenario %s: custom runner does not support checkpoint/resume", sc.Name)
	}
	if p.Iterations == 0 {
		if p.Iterations = def.Iterations; p.Iterations == 0 {
			p.Iterations = sc.Iterations
		}
	}
	if p.Iterations < 1 {
		return p, fmt.Errorf("scenario %s: iterations must be >= 1, got %d", sc.Name, p.Iterations)
	}
	if p.Kernel == "" {
		if p.Kernel = def.Kernel; p.Kernel == "" {
			p.Kernel = mpi.KernelNameGoroutine
		}
	}
	if _, err := mpi.ParseKernel(p.Kernel); err != nil {
		return p, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if p.BalanceEvery == 0 {
		p.BalanceEvery = def.BalanceEvery
	}
	if p.BalanceRounds == 0 {
		p.BalanceRounds = def.BalanceRounds
	}
	if sc.Runner == nil {
		if p.Exchange != ExchangeBasic && p.Exchange != ExchangeOverlap {
			return p, fmt.Errorf("scenario %s: unknown exchange mode %q (want %s or %s)",
				sc.Name, p.Exchange, ExchangeBasic, ExchangeOverlap)
		}
		if p.Buffers != BuffersPooled {
			return p, fmt.Errorf("scenario %s: unknown buffer mode %q (want %s)", sc.Name, p.Buffers, BuffersPooled)
		}
		if !partition.Known(p.Partitioner) {
			return p, fmt.Errorf("scenario %s: unknown partitioner %q (known: %v)", sc.Name, p.Partitioner, partition.Names())
		}
		if !balance.Known(p.Balancer) {
			return p, fmt.Errorf("scenario %s: unknown balancer %q (known: %v)", sc.Name, p.Balancer, balance.Names())
		}
	}
	return p, nil
}

// Config builds the platform configuration for one run of the scenario at
// the given parameters: graph generated, partition computed, and the
// named interconnect model (Origin 2000 base costs) attached — wrapped
// in the Perturb fault-injection schedule when one is named. Callers
// that need final node data (examples verifying against the sequential
// reference) flip SkipFinalGather off before platform.Run. Scenarios with
// a custom Runner have no platform configuration and return an error.
func (sc Scenario) Config(p Params) (*platform.Config, error) {
	if sc.Runner != nil {
		return nil, fmt.Errorf("scenario %s: custom runner, no platform config", sc.Name)
	}
	np, err := sc.Normalize(p)
	if err != nil {
		return nil, err
	}
	return sc.config(np)
}

// config is Config for parameters Normalize has already returned, so Run
// normalizes once.
func (sc Scenario) config(p Params) (*platform.Config, error) {
	g, err := sc.Graph()
	if err != nil {
		return nil, err
	}
	net, err := netmodel.New(p.Network, p.Procs)
	if err != nil {
		return nil, err
	}
	part, err := PartitionOn(p.Partitioner, g, p.Procs, net)
	if err != nil {
		return nil, err
	}
	// Fault injection wraps the machine only after partitioning: the
	// static partitioner targets the undegraded machine (it cannot know
	// the future), which is also what keeps PaGrid's network-graph
	// unwrapping working.
	runNet := net
	if sched, err := fault.Parse(p.Perturb); err != nil {
		return nil, err
	} else if sched != nil {
		runNet, err = fault.Wrap(net, sched, p.Procs, p.Iterations)
		if err != nil {
			return nil, err
		}
	}
	bal, err := NewBalancerOn(p.Balancer, p.Network, p.Procs)
	if err != nil {
		return nil, err
	}
	if p.Procs == 1 {
		bal = nil // one processor has nothing to balance
	}
	kernel, err := mpi.ParseKernel(p.Kernel)
	if err != nil {
		return nil, err
	}
	return &platform.Config{
		Graph:            g,
		Procs:            p.Procs,
		InitialPartition: part,
		InitData:         sc.InitData,
		Node:             sc.Node(g),
		Iterations:       p.Iterations,
		SubPhases:        sc.SubPhases,
		Overlap:          p.Exchange == ExchangeOverlap,
		Balancer:         bal,
		BalanceEvery:     p.BalanceEvery,
		BalanceRounds:    p.BalanceRounds,
		Network:          runNet,
		Kernel:           kernel,
		KernelWorkers:    p.KernelWorkers,
		SkipFinalGather:  true,
		Trace:            p.Trace,
		CheckpointEvery:  p.CheckpointEvery,
		CheckpointSink:   p.CheckpointSink,
		ResumeFrom:       p.ResumeFrom,
	}, nil
}

// Run executes the scenario at the given parameters and reports the
// machine-readable metrics.
func (sc Scenario) Run(p Params) (*Result, error) {
	p, err := sc.Normalize(p)
	if err != nil {
		return nil, err
	}
	if sc.Runner != nil {
		return sc.Runner(sc, p)
	}
	cfg, err := sc.config(p)
	if err != nil {
		return nil, err
	}
	q, err := partition.Evaluate(cfg.Graph, cfg.InitialPartition, p.Procs)
	if err != nil {
		return nil, err
	}
	res, err := platform.Run(*cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Scenario:   sc.Name,
		Params:     p,
		Elapsed:    res.Elapsed,
		EdgeCut:    q.EdgeCut,
		Imbalance:  q.Imbalance,
		Migrations: res.Migrations,
		Phases:     make([]float64, platform.NumPhases),
	}
	for ph := 0; ph < platform.NumPhases; ph++ {
		out.Phases[ph] = res.MaxPhase(platform.Phase(ph))
	}
	for _, s := range res.Stats {
		out.MessagesSent += s.MessagesSent
		out.BytesSent += s.BytesSent
	}
	return out, nil
}

// PartitionOn runs the named static partitioner on g for k processors of
// the run's interconnect model: the network-aware PaGrid partitioner maps
// onto the model's processor network graph (with the paper's Rref = 0.45),
// so a mesh2d run is partitioned for a mesh, not a hypercube. A nil model
// (or one without an underlying graph, such as the uniform crossbar) keeps
// the historical hypercube target. The geometric partitioners require
// graph coordinates.
func PartitionOn(name string, g *graph.Graph, k int, model netmodel.Model) ([]int, error) {
	pt, err := partition.New(name)
	if err != nil {
		return nil, err
	}
	var net *topology.Network
	if topo, ok := model.(netmodel.Topology); ok {
		net = topo.Net
	} else if net, err = partition.DefaultNetwork(pt, k); err != nil {
		return nil, err
	}
	return pt.Partition(g, net, k)
}

// NewBalancerOn resolves a Params.Balancer name (balance.Names) to a
// platform balancer with the run's interconnect in view; "none" resolves
// to nil, disabling dynamic balancing.
func NewBalancerOn(name, network string, procs int) (platform.Balancer, error) {
	return balance.New(name, network, procs)
}
