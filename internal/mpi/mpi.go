package mpi

import (
	"errors"
	"fmt"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/vtime"
)

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// Options configures a World.
type Options struct {
	// Procs is the number of ranks (>= 1).
	Procs int
	// Cost is the interconnect model that prices messages: per-pair
	// arrival times plus per-rank send/receive overheads. nil means free
	// communication (netmodel.Free()).
	Cost netmodel.Model
	// Kernel is kept for callers that still pick the worker count by name:
	// Run runs Kernel.Workers(Workers) workers, so KernelEvent is one and
	// the other two names are Workers (kernel.go).
	Kernel Kernel
	// Workers is the engine's worker count (pevent.go): 0 (the default)
	// resolves to min(GOMAXPROCS, Procs); explicit values are clamped to
	// Procs. Any worker count produces the same bytes — the knob trades
	// host parallelism against messages that wait a window in a
	// cross-worker outbox.
	Workers int
	// Probe, when non-nil, is overwritten as Run returns with what the
	// engine did on the host (windows, activations, parks, staged
	// messages), under every kernel name. It is an observer, not a
	// setting: a run with Probe set is byte-identical to one without.
	Probe *KernelCounters
	// Stop, once closed, makes Stopped return ErrStopped; nil never does.
	Stop <-chan struct{}
	// NeverBlocks, when non-nil, declares the ranks it is true for never to
	// block: they run with no coroutine (pevent.go), and any Recv, Barrier
	// or collective they call fails the run (ErrNeverBlocks).
	NeverBlocks func(rank int) bool
}

// ErrStopped is what a rank returns once its run's Options.Stop is closed.
var ErrStopped = errors.New("mpi: stopped")

// ErrNeverBlocks is what a rank declared never to block fails its run with
// once it calls Recv, Barrier or a collective.
var ErrNeverBlocks = errors.New("blocking call on a rank declared never to block")

// World owns the shared state of one SPMD execution: the cost model, the
// engine that schedules the ranks and the failure state. Ranks only read
// it; the engine's coordinator writes fail between windows.
type World struct {
	procs int
	cost  netmodel.Model
	// tv is non-nil when the cost model evolves over epochs
	// (netmodel.TimeVarying): Isend prices arrival at the sender's epoch
	// and SetEpoch refreshes cached per-rank overheads. nil for static
	// models, keeping their send path untouched.
	tv netmodel.TimeVarying
	// eng runs the ranks (pevent.go); set by runPEvent before any rank
	// starts, so Comm methods call it unconditionally.
	eng *eventEngine
	// fail is the run's error: the lowest failing rank's of the first
	// window with one, published by the fold, or the deadlock the
	// coordinator found. Recv and Barrier abort once it is set.
	fail error
	stop <-chan struct{} // Options.Stop
}

// message is one in-flight point-to-point message, priced by Isend:
// arrival is the virtual time it reaches its receiver.
type message struct {
	src, tag int
	payload  any
	bytes    int
	arrival  float64
}

// Comm is one rank's handle on the world. All methods must be called only
// from the rank's own program, which must not keep the Comm past its
// return: it lives in the rank's carrier and serves the next run. A rank
// fails the world by returning an error or panicking; there is no call for
// it.
type Comm struct {
	world *World
	rank  int
	clock vtime.Clock
	// sendOverhead/recvOverhead cache the cost model's per-rank message
	// overheads so the per-message paths make no interface calls for them.
	// SetEpoch refreshes them when the cost model is time-varying.
	sendOverhead float64
	recvOverhead float64
	// epoch is this rank's current epoch (0 until SetEpoch is called);
	// a time-varying cost model prices outgoing messages at it.
	epoch int
	// sent/received count operations, exposed in Stats for tests.
	sent, received int
	bytesSent      int
	bytesReceived  int
	// idleSeconds accumulates virtual time this rank's clock was
	// fast-forwarded waiting on a message arrival or a barrier release.
	idleSeconds float64
}

// Stats reports per-rank message counters, used by tests and by the
// experiment harness to report communication volume.
type Stats struct {
	MessagesSent     int
	MessagesReceived int
	BytesSent        int
	BytesReceived    int
	// IdleSeconds is the total virtual time the rank spent waiting: the
	// clock fast-forward applied when a receive completed after the rank's
	// own time, or when a barrier released at a later sibling's time.
	IdleSeconds float64
}

// Stats returns a snapshot of this rank's communication counters.
func (c *Comm) Stats() Stats {
	return Stats{
		MessagesSent:     c.sent,
		MessagesReceived: c.received,
		BytesSent:        c.bytesSent,
		BytesReceived:    c.bytesReceived,
		IdleSeconds:      c.idleSeconds,
	}
}

// Restore rewinds this rank to a previously captured execution point:
// the virtual clock jumps forward to clock and the communication
// counters reload from st. It exists for checkpoint/resume — the
// platform calls it once per rank, before any communication, so a
// restored run's clocks and Stats continue exactly where the snapshot
// was cut. Like every Comm method it must be called from the rank's own
// program.
func (c *Comm) Restore(clock float64, st Stats) error {
	if c.sent != 0 || c.received != 0 {
		return fmt.Errorf("mpi: rank %d Restore after communication started", c.rank)
	}
	if clock < 0 {
		return fmt.Errorf("mpi: rank %d Restore to negative clock %v", c.rank, clock)
	}
	c.clock.AdvanceTo(clock)
	c.sent = st.MessagesSent
	c.received = st.MessagesReceived
	c.bytesSent = st.BytesSent
	c.bytesReceived = st.BytesReceived
	c.idleSeconds = st.IdleSeconds
	return nil
}

// Run executes fn as an SPMD program across opts.Procs ranks and blocks
// until every rank returns. It returns the error of the lowest rank that
// failed — returned an error or panicked — in the first window any rank
// failed in, or "mpi: deadlock: …" once every unfinished rank is blocked
// on something no rank can supply.
func Run(opts Options, fn func(c *Comm) error) error {
	if opts.Procs < 1 {
		return fmt.Errorf("mpi: Procs must be >= 1, got %d", opts.Procs)
	}
	cost := opts.Cost
	if cost == nil {
		cost = netmodel.Free()
	}
	if err := cost.Validate(opts.Procs); err != nil {
		return err
	}
	w := &World{procs: opts.Procs, cost: cost, stop: opts.Stop}
	if tv, ok := cost.(netmodel.TimeVarying); ok {
		w.tv = tv
	}
	return runPEvent(w, fn, opts.Kernel.Workers(opts.Workers), opts.NeverBlocks, opts.Probe)
}

// runRank executes fn as the program of c's rank, on the Comm its carrier
// holds, and returns its error, or its panic converted to one, named by
// rank. The rank's worker records it, and the next fold fails the world
// and wakes blocked siblings, so a failed collective does not hang them
// forever.
func (w *World) runRank(c *Comm, fn func(c *Comm) error) (err error) {
	rank := c.rank
	c.sendOverhead, c.recvOverhead = w.cost.SendOverhead(rank), w.cost.RecvOverhead(rank)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
		}
	}()
	if err := fn(c); err != nil {
		return fmt.Errorf("mpi: rank %d: %w", rank, err)
	}
	return nil
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.procs }

// Wtime returns this rank's virtual time in seconds. It mirrors MPI_Wtime,
// which the thesis uses for all its measurements.
func (c *Comm) Wtime() float64 { return c.clock.Now() }

// SetEpoch advances this rank's epoch: when the world's cost model is
// time-varying (netmodel.TimeVarying), outgoing messages are priced at
// the epoch's conditions and the cached per-rank send/receive overheads
// are refreshed to them. The platform calls it at iteration boundaries;
// for static cost models only the number changes, which nothing reads.
// Must be called from the owning rank's goroutine, like every Comm
// method.
func (c *Comm) SetEpoch(epoch int) {
	c.epoch = epoch
	if tv := c.world.tv; tv != nil {
		c.sendOverhead = tv.SendOverheadAt(epoch, c.rank)
		c.recvOverhead = tv.RecvOverheadAt(epoch, c.rank)
	}
}

// Stopped returns ErrStopped, without blocking, once Options.Stop is
// closed. A rank calls it at each iteration boundary and returns the error,
// which fails the run as any rank's error does. A nil Stop costs a compare.
func (c *Comm) Stopped() error {
	if c.world.stop != nil {
		select {
		case <-c.world.stop:
			return ErrStopped
		default:
		}
	}
	return nil
}

// Charge accounts d seconds of local computation to this rank: its clock
// advances by d (a d that is not positive is ignored), standing in for the
// thesis' dummy grain loops.
func (c *Comm) Charge(d float64) { c.clock.Advance(d) }

// Isend enqueues a message for rank dst without blocking (MPI_Isend with an
// unbounded system buffer). bytes is the payload size used by the cost
// model; payload itself is delivered by reference, so callers must not
// mutate it until the receiver has consumed it. The platform either hands
// over freshly packed buffers (as the C original does) or, with pooled
// exchange buffers, reuses a buffer only once the exchange protocol proves
// its receipt — see the peer.pool comment in internal/platform/state.go for
// that argument. Anything in this runtime that held payload references
// past delivery (logging, replay, delayed matching) would break it.
func (c *Comm) Isend(dst, tag int, payload any, bytes int) error {
	if dst < 0 || dst >= c.world.procs {
		return fmt.Errorf("mpi: Isend from rank %d to invalid rank %d (size %d)", c.rank, dst, c.world.procs)
	}
	if bytes < 0 {
		return fmt.Errorf("mpi: Isend negative byte count %d", bytes)
	}
	c.clock.Advance(c.sendOverhead)
	c.world.eng.send(dst, message{src: c.rank, tag: tag, payload: payload, bytes: bytes, arrival: c.arrival(dst, bytes)})
	c.sent++
	c.bytesSent += bytes
	return nil
}

// Recv blocks until a message from src with the given tag (or AnyTag)
// arrives, removes it from the queue and returns its payload. Matching is
// FIFO per (src, tag) pair, as MPI guarantees. The receiver's clock
// advances to the later of its own time and the message arrival time, plus
// the receive overhead, wherever in the program the receive is issued
// (doc.go: why there is no MPI_Irecv/MPI_Wait pair).
func (c *Comm) Recv(src, tag int) (any, error) {
	if src < 0 || src >= c.world.procs {
		return nil, fmt.Errorf("mpi: Recv on rank %d from invalid rank %d (size %d)", c.rank, src, c.world.procs)
	}
	return c.world.eng.recv(c, src, tag)
}

// errAborted is what a blocking call returns once a sibling rank has
// failed the world. It is built out of line: a rank parks inside Recv
// and Barrier, and fmt.Errorf's argument temporaries would otherwise be
// part of every parked stack.
//
//go:noinline
func errAborted(rank int, op string) error {
	return fmt.Errorf("mpi: rank %d %s aborted: sibling rank failed", rank, op)
}

// arrival prices a message of the given size that this rank injects now,
// its SendOverhead charged, for rank dst: the model prices the wire per
// (src, dst) pair, a time-varying one at the sender's epoch. The result is
// a pure function of the message content — never of receiver progress or
// host scheduling — which is what makes every worker count produce the
// same timeline.
func (c *Comm) arrival(dst, bytes int) float64 {
	if tv := c.world.tv; tv != nil {
		return tv.ArrivalTimeAt(c.epoch, c.rank, dst, c.clock.Now(), bytes)
	}
	return c.world.cost.ArrivalTime(c.rank, dst, c.clock.Now(), bytes)
}

// completeRecv advances the clock to m's arrival and counts m.
func (c *Comm) completeRecv(m message) {
	if now := c.clock.Now(); m.arrival > now {
		c.idleSeconds += m.arrival - now
	}
	c.clock.AdvanceTo(m.arrival)
	c.clock.Advance(c.recvOverhead)
	c.received++
	c.bytesReceived += m.bytes
}

// Barrier blocks until all ranks arrive. All clocks leave the barrier at
// the maximum participant time, like a synchronizing MPI_Barrier on
// dedicated hardware.
func (c *Comm) Barrier() error {
	t, err := c.world.eng.barrier(c)
	if err != nil {
		return err
	}
	if now := c.clock.Now(); t > now {
		c.idleSeconds += t - now
	}
	c.clock.AdvanceTo(t)
	return nil
}
