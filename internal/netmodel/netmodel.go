// Package netmodel prices point-to-point communication on a pluggable
// interconnect model, turning the platform's single simulated machine
// into a family of machines.
//
// The seed system charged one flat LogGP cost for every rank pair, so a
// hypercube, a 2-D mesh and a crossbar were indistinguishable. This
// package owns that costing seam: a Model maps (src, dst, send time,
// bytes) to a message arrival time, plus the per-rank send/receive CPU
// overheads and the per-processor relative speed. The mpi runtime calls
// the model on every message delivery; the platform reads Speed for
// heterogeneous computation; scenarios and the experiments sweep engine
// select models by name ("uniform", "hypercube", "mesh2d", "fattree",
// "hetgrid").
//
// Every model is deterministic and safe for concurrent use: arrival
// times are pure functions of their arguments, which is what keeps
// virtual-time runs byte-identical across hosts and repetitions
// (docgen's pinned tables and the golden traces depend on it).
//
// The invariant all shipped models satisfy — and tests enforce — is hop
// monotonicity: for a fixed payload and send time, a route with more
// hops never yields an earlier arrival.
package netmodel

import (
	"fmt"

	"ic2mpi/internal/topology"
)

// LogGP is the base message-cost parameterization shared by every model:
// a message of n bytes sent at time t occupies the sender for
// SendOverhead seconds, travels for Latency + n*ByteTime seconds of wire
// time (scaled by the interconnect's per-pair link cost), and occupies
// the receiver for RecvOverhead seconds once matched. All parameters are
// in seconds (per byte for ByteTime).
type LogGP struct {
	// Latency is the per-message wire latency (the LogGP L parameter).
	Latency float64
	// ByteTime is the inverse bandwidth in seconds per byte (LogGP G).
	ByteTime float64
	// SendOverhead is the CPU time the sender spends injecting a message
	// (LogGP o_s). Charged even by nonblocking sends, as MPI_Isend still
	// pays a software overhead.
	SendOverhead float64
	// RecvOverhead is the CPU time the receiver spends extracting a
	// matched message (LogGP o_r).
	RecvOverhead float64
}

// Validate reports an error when any parameter is negative; the base
// parameters are otherwise unconstrained.
func (g LogGP) Validate() error {
	if g.Latency < 0 || g.ByteTime < 0 || g.SendOverhead < 0 || g.RecvOverhead < 0 {
		return fmt.Errorf("netmodel: negative LogGP parameter: %+v", g)
	}
	return nil
}

// Origin2000 returns the base cost parameters calibrated against the
// paper's SGI Origin 2000 testbed (CRAYlink interconnect, hypercube
// ccNUMA). The constants were fitted so that the 64-node hexagonal grid
// at fine grain reproduces the shape of the paper's Tables 2-4: a
// per-message latency large enough that fine-grain runs stop scaling
// between 8 and 16 processors, and bandwidth high enough that
// coarse-grain runs keep scaling. This is the single home of those
// calibrated constants; everything else (the facade, scenarios, the
// platform default) derives from it.
func Origin2000() LogGP {
	return LogGP{
		Latency:      60e-6, // per-message MPI latency
		ByteTime:     12e-9, // ~83 MB/s effective per-pair bandwidth
		SendOverhead: 15e-6,
		RecvOverhead: 20e-6,
	}
}

// Model prices communication on one interconnect. Implementations must
// be deterministic, safe for concurrent calls, and hop-monotone: more
// hops between a pair never produces an earlier arrival. Every price is a
// pure function of the call's arguments — that, not any bound on how
// small a delay can be, is what lets the mpi engine run ranks in any
// order and on any number of workers without changing a clock.
type Model interface {
	// ArrivalTime returns the virtual time at which a message of nbytes
	// sent from src at sendStart (the sender's clock after its send
	// overhead) becomes available at dst.
	ArrivalTime(src, dst int, sendStart float64, nbytes int) float64
	// SendOverhead is the CPU time rank spends injecting one message.
	SendOverhead(rank int) float64
	// RecvOverhead is the CPU time rank spends extracting one message.
	RecvOverhead(rank int) float64
	// Speed is rank's relative execution-time multiplier (1 = reference
	// processor; 2 = takes twice as long per unit of work).
	Speed(rank int) float64
	// Validate checks the model can serve procs ranks.
	Validate(procs int) error
	// String names the model for reports and sweep axes.
	String() string
}

// TimeVarying extends Model for machines whose behavior evolves over the
// run in discrete epochs. An epoch is a platform iteration (1-based);
// epoch 0 is the initialization phase, where every *At method must equal
// the corresponding static Model method. The mpi runtime stamps each
// message with the sender's epoch at send time and prices its arrival
// with ArrivalTimeAt; the platform advances a rank's epoch at iteration
// boundaries and refreshes the rank's effective speed from SpeedAt.
//
// Implementations must keep every method a pure function of its
// arguments — same determinism contract as Model, extended by the epoch
// dimension — and must not allocate on the ArrivalTimeAt path, which
// runs per message. internal/fault provides the shipped implementation.
type TimeVarying interface {
	Model
	// ArrivalTimeAt is ArrivalTime under the conditions of epoch.
	ArrivalTimeAt(epoch, src, dst int, sendStart float64, nbytes int) float64
	// SendOverheadAt is SendOverhead under the conditions of epoch.
	SendOverheadAt(epoch, rank int) float64
	// RecvOverheadAt is RecvOverhead under the conditions of epoch.
	RecvOverheadAt(epoch, rank int) float64
	// SpeedAt is Speed under the conditions of epoch.
	SpeedAt(epoch, rank int) float64
}

// Uniform is the flat crossbar model: every rank pair pays the same
// LogGP cost, exactly the seed system's behavior. The mpi runtime prices
// it through Model like every other machine.
type Uniform struct {
	// Base is the flat per-message cost.
	Base LogGP
}

// NewUniform returns the flat model over the given base parameters.
func NewUniform(base LogGP) Uniform { return Uniform{Base: base} }

// Free returns a uniform model in which communication costs nothing.
// Useful in unit tests that verify data movement independently of
// timing.
func Free() Uniform { return Uniform{} }

// ArrivalTime implements Model: sendStart + (Latency + nbytes*ByteTime).
// The wire term is summed before adding sendStart so the result is
// bit-identical to the topology models on unit links (and to the seed
// system's flat path, whose pinned goldens depend on this association).
func (u Uniform) ArrivalTime(src, dst int, sendStart float64, nbytes int) float64 {
	wire := u.Base.Latency + float64(nbytes)*u.Base.ByteTime
	return sendStart + wire
}

// SendOverhead implements Model.
func (u Uniform) SendOverhead(rank int) float64 { return u.Base.SendOverhead }

// RecvOverhead implements Model.
func (u Uniform) RecvOverhead(rank int) float64 { return u.Base.RecvOverhead }

// Speed implements Model: a uniform machine is homogeneous.
func (u Uniform) Speed(rank int) float64 { return 1 }

// Validate implements Model.
func (u Uniform) Validate(procs int) error {
	if procs < 1 {
		return fmt.Errorf("netmodel: uniform model needs procs >= 1, got %d", procs)
	}
	return u.Base.Validate()
}

// String implements Model.
func (u Uniform) String() string { return NameUniform }

// Topology prices messages on a processor network graph: the wire
// portion of a message's cost (latency + bytes/bandwidth) scales with
// the graph's per-pair link cost — the store-and-forward hop count for
// the distance-derived constructors — and computation scales with the
// owning processor's relative Speed. A link cost of 1 (or 0, the
// diagonal) leaves the wire cost unscaled, so a topology where every
// pair is adjacent is bit-identical to Uniform.
type Topology struct {
	// Base is the per-message cost of a single-hop message.
	Base LogGP
	// Net is the processor network graph (link costs + speeds).
	Net *topology.Network
	// name is the registry name when built by New, or Net.Name for ad-hoc
	// graphs.
	name string
}

// NewTopology wraps an arbitrary processor network graph — including
// heterogeneous ones such as topology.HeterogeneousGrid — as an
// interconnect model.
func NewTopology(net *topology.Network, base LogGP) (Topology, error) {
	if net == nil {
		return Topology{}, fmt.Errorf("netmodel: nil network")
	}
	if err := net.Validate(); err != nil {
		return Topology{}, err
	}
	return Topology{Base: base, Net: net, name: net.Name}, nil
}

// ArrivalTime implements Model: the wire time Latency + nbytes*ByteTime
// is multiplied by the link cost between src and dst (hop count for the
// distance-derived graphs). Self-sends and non-positive link costs fall
// back to the unscaled wire time.
func (t Topology) ArrivalTime(src, dst int, sendStart float64, nbytes int) float64 {
	wire := t.Base.Latency + float64(nbytes)*t.Base.ByteTime
	if src != dst {
		if s := t.Net.Link(src, dst); s > 0 {
			wire *= s
		}
	}
	return sendStart + wire
}

// SendOverhead implements Model.
func (t Topology) SendOverhead(rank int) float64 { return t.Base.SendOverhead }

// RecvOverhead implements Model.
func (t Topology) RecvOverhead(rank int) float64 { return t.Base.RecvOverhead }

// Speed implements Model.
func (t Topology) Speed(rank int) float64 { return t.Net.Speed[rank] }

// Validate implements Model.
func (t Topology) Validate(procs int) error {
	if t.Net == nil {
		return fmt.Errorf("netmodel: topology model has no network")
	}
	if err := t.Net.Validate(); err != nil {
		return err
	}
	if t.Net.Procs() < procs {
		return fmt.Errorf("netmodel: %s has %d processors, need %d", t.String(), t.Net.Procs(), procs)
	}
	return t.Base.Validate()
}

// String implements Model.
func (t Topology) String() string {
	if t.name != "" {
		return t.name
	}
	if t.Net != nil && t.Net.Name != "" {
		return t.Net.Name
	}
	return "topology"
}

// Registry names accepted by New and the scenario/experiments network
// axis.
const (
	NameUniform   = "uniform"
	NameHypercube = "hypercube"
	NameMesh2D    = "mesh2d"
	NameFatTree   = "fattree"
	NameHetGrid   = "hetgrid"
)

// Default parameters of the named hetgrid and fattree machines.
const (
	// DefaultFatTreeArity is the switch arity of the named "fattree"
	// machine: four processors per leaf switch.
	DefaultFatTreeArity = 4
	// DefaultHetGridSlowFactor makes the named "hetgrid" machine's slow
	// cluster twice as slow as its fast cluster.
	DefaultHetGridSlowFactor = 2
	// DefaultHetGridWANCost makes the named "hetgrid" machine's
	// inter-cluster links ten times a local link.
	DefaultHetGridWANCost = 10
)

// machines is the one table of named machines, in presentation order:
// each name with the processor network graph it is priced on. The flat
// crossbar has none (nil) — it is the Uniform model.
var machines = []struct {
	name string
	net  func(procs int) (*topology.Network, error)
}{
	{NameUniform, nil},
	{NameHypercube, topology.Hypercube},
	{NameMesh2D, topology.Mesh2D},
	{NameFatTree, func(procs int) (*topology.Network, error) { return topology.FatTree(procs, DefaultFatTreeArity) }},
	{NameHetGrid, func(procs int) (*topology.Network, error) {
		return topology.HeterogeneousGrid(procs, DefaultHetGridSlowFactor, DefaultHetGridWANCost)
	}},
}

// Names returns the model names New accepts, in presentation order.
func Names() []string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = m.name
	}
	return names
}

// Known reports whether New accepts name, without building Names' slice.
func Known(name string) bool {
	for _, m := range machines {
		if m.name == name {
			return true
		}
	}
	return false
}

// New resolves a model name to a machine over procs processors with the
// Origin 2000 base parameters — the single construction path scenarios
// and the experiments network axis share. The empty name resolves to
// NameUniform.
func New(name string, procs int) (Model, error) {
	if name == "" {
		name = NameUniform
	}
	for _, m := range machines {
		if m.name != name {
			continue
		}
		if m.net == nil {
			return NewUniform(Origin2000()), nil
		}
		net, err := m.net(procs)
		if err != nil {
			return nil, err
		}
		return Topology{Base: Origin2000(), Net: net, name: name}, nil
	}
	return nil, fmt.Errorf("netmodel: unknown model %q (known: %v)", name, Names())
}
