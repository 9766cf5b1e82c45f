package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// Kernel selects the execution engine: KernelGoroutine (default, one
	// goroutine per rank), KernelEvent (the discrete-event scheduler on
	// one worker, for large worlds) or KernelParallelEvent (the same
	// scheduler sharded across workers that synchronize only when all are
	// out of events). All are bit-identical in virtual time, stats and
	// traces — see kernel.go.
	Kernel Kernel
	// Workers bounds the worker count of KernelParallelEvent: 0 (the
	// default) resolves to min(GOMAXPROCS, Procs); explicit values are
	// clamped to Procs. Any worker count produces the same bytes — the
	// knob trades host parallelism against messages that wait a window in
	// a cross-worker lane. Ignored by the other kernels (KernelEvent is
	// always one worker).
	Workers int
	// Probe, when non-nil, is overwritten as Run returns with what the
	// event engine did on the host (windows, activations, parks, staged
	// messages). It is an observer, not a setting: a run with Probe set is
	// byte-identical to one without. Left untouched by KernelGoroutine.
	Probe *KernelCounters
}

// World owns the shared state of one SPMD execution: the cost model, the
// mailboxes and the barrier.
type World struct {
	procs int
	cost  netmodel.Model
	// tv is non-nil when the cost model evolves over epochs
	// (netmodel.TimeVarying): receives re-price arrival at the message's
	// send epoch and SetEpoch refreshes cached per-rank overheads. nil
	// for static models, keeping their receive path untouched.
	tv    netmodel.TimeVarying
	boxes []*mailbox
	bar   *barrier
	// eng is non-nil when the world runs under the event-driven kernel
	// (pevent.go); Comm methods branch to it instead of the mailboxes.
	eng *eventEngine
	// failFlag is the lock-free fast path for "has any rank failed":
	// receive loops poll it on every wakeup, so it must not require
	// taking failMu (which would nest inside the mailbox lock).
	failFlag atomic.Bool
	failMu   sync.Mutex
	fail     error
}

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	payload  any
	bytes    int
	sentAt   float64 // sender virtual clock when Isend returned
	// epoch is the sender's epoch when the message was injected; a
	// time-varying cost model prices the wire at these conditions. Always
	// 0 for static models.
	epoch int
}

// mailbox is the per-rank receive queue. Senders append under mu; the
// owning rank (the only receiver) scans for the first (src, tag) match.
// Delivered envelopes return to free, so steady-state traffic recycles a
// small fixed set of envelopes instead of allocating one per message.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*message
	free    []*message
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// get returns a recycled envelope (or a fresh one) filled with m. Callers
// must hold mu.
func (b *mailbox) get(m message) *message {
	if n := len(b.free); n > 0 {
		env := b.free[n-1]
		b.free = b.free[:n-1]
		*env = m
		return env
	}
	env := new(message)
	*env = m
	return env
}

// put zeroes env (dropping the payload reference) and returns it to the
// free list. Callers must hold mu.
func (b *mailbox) put(env *message) {
	*env = message{}
	b.free = append(b.free, env)
}

// barrier is a generation-counting barrier that also synchronizes virtual
// clocks: every participant contributes its clock, and all leave with the
// maximum.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	procs   int
	arrived int
	gen     uint64
	maxTime float64
	// outTime holds the released max for the finishing generation.
	outTime float64
}

func newBarrier(procs int) *barrier {
	b := &barrier{procs: procs}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all procs arrive and returns the maximum clock value
// contributed by any participant. abort is re-checked whenever the waiter
// is woken so that a failing sibling rank (which broadcasts on the barrier
// via failWake) unblocks everyone instead of leaving them asleep.
func (b *barrier) wait(clock float64, abort func() bool) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if clock > b.maxTime {
		b.maxTime = clock
	}
	b.arrived++
	if b.arrived == b.procs {
		b.outTime = b.maxTime
		b.maxTime = 0
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.outTime
	}
	gen := b.gen
	for gen == b.gen {
		if abort != nil && abort() {
			// Withdraw from the barrier so a later re-entry (there will
			// not be one — the world is failing) cannot miscount.
			b.arrived--
			return clock
		}
		b.cond.Wait()
	}
	return b.outTime
}

// Comm is one rank's handle on the world. All methods must be called only
// from the goroutine that owns the rank.
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
	// outgoing messages are stamped with it.
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
// was cut. Like every Comm method it must be called from the goroutine
// (or coroutine, under the event kernel) that owns the rank.
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
// until every rank returns. It returns the first error raised by any rank
// via Comm.Fail, or a panic converted to an error.
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
	w := &World{
		procs: opts.Procs,
		cost:  cost,
		bar:   newBarrier(opts.Procs),
	}
	if tv, ok := cost.(netmodel.TimeVarying); ok {
		w.tv = tv
	}
	switch opts.Kernel {
	case KernelEvent, KernelParallelEvent:
		workers := opts.Workers
		if opts.Kernel == KernelEvent {
			workers = 1
		}
		return runPEvent(w, fn, workers, opts.Probe)
	}
	w.boxes = make([]*mailbox, opts.Procs)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	var wg sync.WaitGroup
	wg.Add(opts.Procs)
	for r := 0; r < opts.Procs; r++ {
		go func(rank int) {
			defer wg.Done()
			w.runRank(rank, fn)
		}(r)
	}
	wg.Wait()
	return w.failed()
}

// runRank executes fn as rank's program under either kernel. An error
// or a panic fails the world and wakes blocked siblings, so a failed
// collective does not hang them forever.
func (w *World) runRank(rank int, fn func(c *Comm) error) {
	c := &Comm{
		world:        w,
		rank:         rank,
		sendOverhead: w.cost.SendOverhead(rank),
		recvOverhead: w.cost.RecvOverhead(rank),
	}
	defer func() {
		if p := recover(); p != nil {
			w.setFail(fmt.Errorf("mpi: rank %d panicked: %v", rank, p))
			w.failWake(rank)
		}
	}()
	if err := fn(c); err != nil {
		w.setFail(fmt.Errorf("mpi: rank %d: %w", rank, err))
		w.failWake(rank)
	}
}

func (w *World) setFail(err error) {
	w.failMu.Lock()
	if w.fail == nil {
		w.fail = err
	}
	w.failMu.Unlock()
	w.failFlag.Store(true)
}

func (w *World) failed() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.fail
}

// failWake wakes blocked ranks after rank failed the world, so they
// observe the failure and unwind: the event kernel reschedules parked
// ranks, the goroutine kernel broadcasts on every mailbox and the barrier.
func (w *World) failWake(rank int) {
	if w.eng != nil {
		w.eng.failWake(rank)
		return
	}
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	w.bar.mu.Lock()
	w.bar.cond.Broadcast()
	w.bar.mu.Unlock()
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.procs }

// Wtime returns this rank's virtual time in seconds. It mirrors MPI_Wtime,
// which the thesis uses for all its measurements.
func (c *Comm) Wtime() float64 { return c.clock.Now() }

// SetEpoch advances this rank's epoch: outgoing messages are stamped
// with it, and when the world's cost model is time-varying
// (netmodel.TimeVarying) the cached per-rank send/receive overheads are
// refreshed to the epoch's conditions. The platform calls it at
// iteration boundaries; for static cost models only the stamp changes,
// which nothing reads. Must be called from the owning rank's goroutine,
// like every Comm method.
func (c *Comm) SetEpoch(epoch int) {
	c.epoch = epoch
	if tv := c.world.tv; tv != nil {
		c.sendOverhead = tv.SendOverheadAt(epoch, c.rank)
		c.recvOverhead = tv.RecvOverheadAt(epoch, c.rank)
	}
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
	m := message{src: c.rank, tag: tag, payload: payload, bytes: bytes, sentAt: c.clock.Now(), epoch: c.epoch}
	if eng := c.world.eng; eng != nil {
		eng.send(dst, m)
	} else {
		box := c.world.boxes[dst]
		box.mu.Lock()
		box.pending = append(box.pending, box.get(m))
		// The owning rank is the only receiver, so one wakeup suffices.
		box.cond.Signal()
		box.mu.Unlock()
	}
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
	if eng := c.world.eng; eng != nil {
		return eng.recv(c, src, tag)
	}
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	for {
		// Lock-free failure check: taking failMu here would nest inside
		// box.mu on every wakeup of every blocked receiver.
		if c.world.failFlag.Load() {
			box.mu.Unlock()
			return nil, errAborted(c.rank, "Recv")
		}
		for i, env := range box.pending {
			if env.src == src && (tag == AnyTag || env.tag == tag) {
				box.pending = append(box.pending[:i], box.pending[i+1:]...)
				m := *env
				box.put(env)
				box.mu.Unlock()
				c.completeRecv(m)
				return m.payload, nil
			}
		}
		box.cond.Wait()
	}
}

// errAborted is what a blocking call returns once a sibling rank has
// failed the world. It is built out of line: under the event kernel a
// rank parks inside Recv and Barrier, and fmt.Errorf's argument
// temporaries would otherwise be part of every parked stack.
//
//go:noinline
func errAborted(rank int, op string) error {
	return fmt.Errorf("mpi: rank %d %s aborted: sibling rank failed", rank, op)
}

// arrival prices message m's delivery at rank dst. sentAt already
// includes the sender's SendOverhead charge; the model prices the wire
// portion per (src, dst) pair. The result is a pure function of the
// message content — never of receiver progress or host scheduling —
// which is what makes both kernels produce the same timeline.
func (w *World) arrival(m message, dst int) float64 {
	if w.tv != nil {
		// A time-varying machine prices the wire at the conditions of
		// the sender's epoch when the message was injected, so pricing
		// is a pure function of the message, not of receiver progress.
		return w.tv.ArrivalTimeAt(m.epoch, m.src, dst, m.sentAt, m.bytes)
	}
	return w.cost.ArrivalTime(m.src, dst, m.sentAt, m.bytes)
}

func (c *Comm) completeRecv(m message) {
	arrival := c.world.arrival(m, c.rank)
	if now := c.clock.Now(); arrival > now {
		c.idleSeconds += arrival - now
	}
	c.clock.AdvanceTo(arrival)
	c.clock.Advance(c.recvOverhead)
	c.received++
	c.bytesReceived += m.bytes
}

// Barrier blocks until all ranks arrive. All clocks leave the barrier at
// the maximum participant time, like a synchronizing MPI_Barrier on
// dedicated hardware.
func (c *Comm) Barrier() error {
	var t float64
	if eng := c.world.eng; eng != nil {
		var err error
		if t, err = eng.barrier(c); err != nil {
			return err
		}
	} else {
		t = c.world.bar.wait(c.clock.Now(), func() bool { return c.world.failed() != nil })
		if err := c.world.failed(); err != nil {
			return errAborted(c.rank, "Barrier")
		}
	}
	if now := c.clock.Now(); t > now {
		c.idleSeconds += t - now
	}
	c.clock.AdvanceTo(t)
	return nil
}

// Fail aborts the world with err; other ranks blocked in Recv/Barrier
// observe the failure and unwind.
func (c *Comm) Fail(err error) {
	c.world.setFail(fmt.Errorf("mpi: rank %d: %w", c.rank, err))
	c.world.failWake(c.rank)
}
