package mpi

// The engine, at any worker count (Options.Workers). Ranks are passive
// states: a rank's program runs on a carrier, a runtime coroutine
// (iter.Pull) that carries its suspended stack and, pooled with it,
// outlives the run. A worker takes the next rank off its run queue — the
// ranks woken and not yet run, in the order they were woken — and switches
// to it (next); a blocking MPI call switches back (yield). Both are runtime.coroswitch: the thread
// passes from worker to rank and back without the Go scheduler, a wake-up
// of an idle P or a futex. A message is stored once, in its receiver's
// queue, until a Recv takes it, so memory per rank is flat: a carrier,
// which holds the rank's Comm, engine state and receive queue and is
// recycled with its parked coroutine, and a run-queue slot; a rank declared
// never to block (Options.NeverBlocks) runs on its worker, no coroutine.
//
// Ranks are partitioned into contiguous blocks across workers, each
// owning a private run queue, an outbox and its ranks' carriers, and
// running one rank at a time. A window runs every worker until its queue
// is empty — every rank it owns has finished or is parked on something
// only another worker or the fold can supply — staging sends to other
// workers' ranks in its outbox and counting its own ranks' barrier
// arrivals and failures. The fold then, single-threaded, delivers the
// outboxes in (source worker, injection) order, releases a barrier every
// rank has reached and publishes the lowest failing rank's error. The
// fold is the only place where workers meet: during a window no engine
// field is written by more than one worker, so a window's work on each
// worker depends only on that worker's state at the window's start, and a
// run at a given worker count reports the same failure every time. A
// window is a fork-join: the caller's goroutine, the coordinator, runs the
// first worker with queued ranks, forks a goroutine for each other one and
// joins them before the fold, so a one-worker run starts no goroutine.
//
// No worker waits for another's virtual time, and none orders its own
// ranks by it: the run queue holds ranks, not timed events. A sequential
// discrete-event simulator runs the earliest event first, and a
// conservative parallel one bounds how far a worker may run ahead,
// because a late message could otherwise reach a rank in its past; here
// there is no such past to protect, by four rules of the Comm API and
// this engine:
//
//  1. A Recv names its source: only the next matching message from src
//     can complete it, so how far other ranks have run is invisible.
//  2. Matching is FIFO per (src, tag), and a source rank's messages to
//     one destination keep program order through its worker's outbox, so
//     the only queue order matching can observe survives any merge.
//  3. A message's arrival time is a pure function of its content (sender
//     clock at injection, size, epoch, endpoint pair), never of when the
//     host delivered it or ran its receiver; Isend prices it once, and the
//     receiver's clock advances to it when the Recv completes.
//  4. A barrier releases every participant at the maximum contributed
//     clock, which is order-independent. Every participant, the last
//     arriver included, leaves at the fold, at every worker count: the
//     fold adds the workers' counts, and it is the one place where another
//     worker's run queue may be written.
//
// No Comm call reports whether a message has been queued yet, so these
// four cover everything a program can observe. Any schedule that respects
// per-rank program order therefore yields identical clocks, stats and
// traces: byte-identity across worker counts, on a zero-latency network
// too, is by construction. The differential harness
// (TestEquivalence at the repo root) pins it across every scenario against
// the one-worker run, and the goldens and digests recorded under the
// goroutine-per-rank engine this one replaced still pass unedited.

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
)

// stagedMsg is one cross-worker message waiting in its sender's worker's
// outbox until the window fold delivers it to rank dst.
type stagedMsg struct {
	m   message
	dst int32
}

// waitState records why a parked rank is blocked in Recv, so only the
// sender of a matching message wakes it.
type waitState struct {
	active   bool
	src, tag int
}

// runQueue is one worker's scheduler: the ranks of its block that have
// been woken and not yet run, first in, first out. A rank is queued at
// most once (eventEngine.scheduled), so a ring with one slot per rank of
// the block, allocated once, can never be full when push is called and
// never grows — an appended slice would leak four bytes per activation
// over a window, and a one-worker run of a program without barriers is
// one window.
type runQueue struct {
	ring    []int32
	head, n int
}

// Len returns the number of queued ranks.
func (q *runQueue) Len() int { return q.n }

// push queues rank behind every rank already queued.
func (q *runQueue) push(rank int32) {
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = rank
	q.n++
}

// pop removes and returns the rank queued longest. The queue must be
// non-empty.
func (q *runQueue) pop() int32 {
	rank := q.ring[q.head]
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return rank
}

// carrier is a coroutine that runs one assigned rank after another, an
// iter.Pull pair: next switches to it until its rank parks or returns
// (done: idle again), stop unwinds it for good; yield is its side of the
// switch. The switch carries no value: a zero-size one costs iter.Pull no
// allocation. k assigns the next rank and is dropped as that rank starts;
// the rank's state rides along and reset clears it as the run ends, so an
// idle carrier holds no World, engine or rank program, and a run allocates
// no per-rank state of its own.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	k     *eventEngine
	rankRun
}

// rankRun is a rank's state for one run. Only the worker owning the rank
// touches it, or the coordinator between windows. pending[head:] is the
// receive queue in delivery order, the only place a delivered message is
// stored, and pending[:head] the zeroed slots its front vacated; scheduled
// is set while the rank sits in its worker's run queue, so it is never
// queued twice; done lets a worker skip stale wakes.
type rankRun struct {
	comm      Comm
	pending   []message
	head      int
	waiting   waitState
	worker    int32 // index of the owning worker
	scheduled bool
	done      bool
	direct    bool // declared never to block: runs on its worker's goroutine
	exited    bool // ended by runtime.Goexit: its carrier is never pooled
}

// reset clears the rank's state for the carrier's next run, dropping the
// World its Comm points at and every payload still queued (recv zeroes the
// slots past the queue), and keeping its receive queue's array.
func (c *carrier) reset() {
	clear(c.pending)
	c.rankRun = rankRun{pending: c.pending[:0]}
}

// idle is the process-wide pool of idle carriers, the last returned last,
// bounded like sync.Pool's victim cache: each GC cycle's sweep stops the
// carriers already idle at the previous one, so none stays two cycles.
// sync.Pool itself would need a handle and a cleanup registered per
// carrier returned, allocations per rank per run; and a run could not take
// all its carriers in one step, nor a test drain the pool at once.
var idle struct {
	mu   sync.Mutex
	free []*carrier
	old  int // free[:old] were idle at the last sweep
}

func init() { armSweep() }

// armSweep has the next GC cycle, which finds a new sentinel unreachable,
// run a cleanup that arms the sweep after it and sweeps the pool.
func armSweep() {
	runtime.AddCleanup(new(*carrier), func(struct{}) { armSweep(); sweepCarriers() }, struct{}{})
}

// sweepCarriers stops the carriers idle since the last sweep and marks the
// rest; two calls drain the pool.
func sweepCarriers() {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	for _, c := range idle.free[:idle.old] {
		if c.stop != nil { // nil for a carrier that only ever ran direct ranks
			c.stop()
		}
	}
	idle.free = slices.Delete(idle.free, 0, idle.old)
	idle.old = len(idle.free)
}

// DrainCarriers stops every idle carrier, as two GC cycles do, so the
// next run starts from an empty pool, the way a process's first run does.
func DrainCarriers() {
	sweepCarriers()
	sweepCarriers()
}

// takeCarriers assigns k's ranks idle carriers, as many as the pool holds,
// and the rest new ones from one slab (which a pooled carrier keeps alive),
// and points each carrier's Comm at its rank.
func takeCarriers(k *eventEngine) {
	idle.mu.Lock()
	n := len(idle.free) - min(len(idle.free), len(k.carriers))
	taken := copy(k.carriers, idle.free[n:])
	clear(idle.free[n:])
	idle.free, idle.old = idle.free[:n], min(idle.old, n)
	idle.mu.Unlock()
	slab := make([]carrier, len(k.carriers)-taken)
	for i := range slab {
		k.carriers[taken+i] = &slab[i]
	}
	for r, c := range k.carriers {
		c.k, c.comm.world, c.comm.rank = k, k.w, r
	}
}

// KernelCounters is what the engine did on the host during one Run
// (Options.Probe). The counts are a function of the program, the cost
// model and the worker count only — they repeat exactly from run to run
// — and never reach a clock, a Stats, a trace or a report.
type KernelCounters struct {
	Windows     int // every worker run until its queue was empty, then one fold
	Activations int // runs of a rank: a resume of its coroutine, or a direct rank's one run
	Parks       int // suspensions of a rank in Recv or Barrier
	StagedMsgs  int // cross-worker messages that waited in an outbox for a fold
}

// peWorker is one worker's shard of the kernel: the run queue and outbox
// for its contiguous block of ranks [lo, hi). All fields are touched only
// by whichever goroutine runs the worker's window (one rank coroutine
// runs at a time per worker) and by the coordinator between windows; the
// window's fork and join order the two.
type peWorker struct {
	k      *eventEngine
	id     int
	lo, hi int
	q      runQueue
	outbox []stagedMsg // sends to other workers' ranks, in injection order
	ndone  int
	// barArrived counts this worker's ranks parked in the barrier and
	// barMax is the latest clock among them, until the fold releases it.
	barArrived int
	barMax     float64
	// failErr is the error of this worker's lowest-numbered failing rank,
	// failRank; the fold publishes the lowest of the workers'.
	failRank int
	failErr  error
	// Host-side tallies for KernelCounters, summed when Run returns.
	activations, parks int
}

// eventEngine is the per-World state of the engine. carriers[r] is rank
// r's carrier, which holds the rank's state (rankRun). Only the fold
// writes its own fields.
type eventEngine struct {
	w        *World
	fn       func(c *Comm) error // the rank program
	workers  []*peWorker
	carriers []*carrier
	barOut   float64        // the clock the last barrier released its ranks at
	forked   sync.WaitGroup // the window's workers on goroutines of their own

	staged int // host-side tally for KernelCounters, kept by fold
}

// wake makes rank runnable: it joins the back of its owning worker's run
// queue unless it is already there. The rank rescans its wait condition
// on resume, so a single wake suffices no matter how many new messages
// queued meanwhile.
func (pw *peWorker) wake(rank int) {
	c := pw.k.carriers[rank]
	if c.scheduled || c.done {
		return
	}
	c.scheduled = true
	pw.q.push(int32(rank))
}

// park suspends the calling rank coroutine until its worker resumes it.
// yield reports false only to a rank being unwound by stop, which happens
// with World.fail set: the caller's next failure check sends it home.
func (pw *peWorker) park(rank int) {
	pw.parks++
	pw.k.carriers[rank].yield(struct{}{})
}

// deliver appends m, which Isend priced, to the receive queue of rank dst
// (owned by this worker) and, when dst is parked on a matching Recv, wakes
// it.
func (pw *peWorker) deliver(m message, dst int) {
	c := pw.k.carriers[dst]
	c.pending = append(c.pending, m)
	if ws := c.waiting; ws.active && m.src == ws.src && (ws.tag == AnyTag || m.tag == ws.tag) {
		pw.wake(dst)
	}
}

// send is Isend's delivery: same-worker messages deliver immediately;
// cross-worker messages wait in the sender's worker's outbox until the
// window fold.
func (k *eventEngine) send(dst int, m message) {
	sw := k.workers[k.carriers[m.src].worker]
	if int(k.carriers[dst].worker) == sw.id {
		sw.deliver(m, dst)
		return
	}
	sw.outbox = append(sw.outbox, stagedMsg{m: m, dst: int32(dst)})
}

// recv is Recv's matching and waiting: take the first queued (src, tag)
// match out of the queue, or park until a sender (or a window fold
// delivering a staged message) wakes the rank. The messages ahead of the
// match move back a slot, the front one is zeroed, and the queue moves to
// the array's start once half of it is vacated: a FIFO take moves O(1)
// messages on average. The clock advance in completeRecv depends only on
// the matched message, so when the rank was woken and resumed never leaks
// into the timeline.
func (k *eventEngine) recv(c *Comm, src, tag int) (any, error) {
	rank := c.rank
	cr := k.carriers[rank]
	if cr.direct {
		return nil, k.refuse(rank, "Recv")
	}
	for {
		if c.world.fail != nil {
			return nil, errAborted(rank, "Recv")
		}
		q, h := cr.pending, cr.head
		for i := h; i < len(q); i++ {
			if m := q[i]; m.src == src && (tag == AnyTag || m.tag == tag) {
				copy(q[h+1:i+1], q[h:i])
				q[h] = message{}
				if cr.head = h + 1; 2*cr.head >= len(q) {
					n := copy(q, q[cr.head:])
					clear(q[n:])
					cr.pending, cr.head = q[:n], 0
				}
				c.completeRecv(m)
				return m.payload, nil
			}
		}
		cr.waiting = waitState{active: true, src: src, tag: tag}
		k.workers[cr.worker].park(rank)
		cr.waiting.active = false
	}
}

// barrier is Barrier's rendezvous: the rank counts itself and its clock
// on its own worker and parks, and the fold that finds every rank counted
// wakes them all to leave with the maximum clock (barOut). Only a release
// or a failure wakes a rank parked here, and the fold publishes a failure
// only in a window no barrier can complete in, so a rank woken with
// World.fail unset was released.
func (k *eventEngine) barrier(c *Comm) (float64, error) {
	if k.carriers[c.rank].direct {
		return 0, k.refuse(c.rank, "Barrier")
	}
	if c.world.fail == nil {
		pw := k.workers[k.carriers[c.rank].worker]
		pw.barArrived++
		pw.barMax = max(pw.barMax, c.clock.Now())
		pw.park(c.rank)
		if c.world.fail == nil {
			return k.barOut, nil
		}
	}
	return 0, errAborted(c.rank, "Barrier")
}

// fail records rank's error unless a lower rank of this worker failed
// first.
func (pw *peWorker) fail(rank int, err error) {
	if pw.failErr == nil || rank < pw.failRank {
		pw.failRank, pw.failErr = rank, err
	}
}

// wakeBlock schedules every undone rank of this worker's block.
func (pw *peWorker) wakeBlock() {
	for r := pw.lo; r < pw.hi; r++ {
		if !pw.k.carriers[r].done {
			pw.wake(r)
		}
	}
}

// run runs the carrier's rank to its return and records it with its
// worker. A rank that calls runtime.Goexit never returns, and its carrier
// ends with it: run records it as done, failed and exited on the way out.
func (c *carrier) run() {
	k := c.k
	c.k = nil
	pw := k.workers[c.worker]
	defer func() {
		if !c.done {
			pw.fail(c.comm.rank, fmt.Errorf("mpi: rank %d called runtime.Goexit", c.comm.rank))
			c.done, c.exited = true, true
			pw.ndone++
		}
	}()
	if err := k.w.runRank(&c.comm, k.fn); err != nil {
		pw.fail(c.comm.rank, err)
	}
	c.done = true
	pw.ndone++
}

// refuse fails a direct rank's blocking call op, which has no coroutine to
// park in, with the rank's worker, even if the program drops the error.
func (k *eventEngine) refuse(rank int, op string) error {
	err := fmt.Errorf("mpi: rank %d %s: %w", rank, op, ErrNeverBlocks)
	k.workers[k.carriers[rank].worker].fail(rank, err)
	return err
}

// runWindow runs this worker's queued ranks, in wake order, until its run
// queue is empty, one rank at a time, on the calling goroutine: a direct
// rank to its return, any other by resuming its coroutine.
func (pw *peWorker) runWindow() {
	k := pw.k
	for pw.q.Len() > 0 {
		c := k.carriers[pw.q.pop()]
		if c.done {
			continue
		}
		c.scheduled = false
		pw.activations++
		switch {
		case c.direct:
			c.run()
		case c.next == nil:
			// Started on first use, so a rank's first stack is the one the
			// previous rank's growth just freed.
			c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
				c.yield = yield
				for {
					if c.run(); !yield(struct{}{}) {
						return
					}
				}
			})
			fallthrough
		default:
			c.next()
		}
	}
}

// forkedWindow runs this worker's window on a goroutine of its own and
// signs off with the coordinator's join, also when a rank's
// runtime.Goexit ends the goroutine.
func (pw *peWorker) forkedWindow() {
	defer pw.k.forked.Done()
	pw.runWindow()
}

// fold is the single-threaded window barrier: deliver the staged
// cross-worker messages (source-worker order, injection order within —
// deterministic, and per-src FIFO because each source's messages share
// one outbox), then release the barrier if every rank has reached it,
// then publish the lowest failing rank's error — the first worker's that
// has one, as workers own ascending blocks — and wake every worker's
// parked ranks to unwind.
func (k *eventEngine) fold() {
	for _, src := range k.workers {
		k.staged += len(src.outbox)
		for _, sm := range src.outbox {
			k.workers[k.carriers[sm.dst].worker].deliver(sm.m, int(sm.dst))
		}
		src.outbox = src.outbox[:0]
	}
	arrived := 0
	for _, pw := range k.workers {
		arrived += pw.barArrived
	}
	release := arrived == k.w.procs
	if release {
		k.barOut = 0
		for _, pw := range k.workers {
			k.barOut = max(k.barOut, pw.barMax)
			pw.barArrived, pw.barMax = 0, 0
		}
	}
	for _, pw := range k.workers {
		if k.w.fail == nil {
			k.w.fail = pw.failErr
		}
	}
	if release || k.w.fail != nil {
		for _, pw := range k.workers {
			pw.wakeBlock()
		}
	}
}

// peWorkerCount resolves Options.Workers: 0 (or negative) means
// min(GOMAXPROCS, procs); explicit values are clamped to procs.
func peWorkerCount(workers, procs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, procs)
}

// runPEvent drives fn across w.procs ranks on workers workers (resolved
// by peWorkerCount) and blocks until every rank returns. The calling
// goroutine is the window coordinator: it runs the first worker that has
// queued ranks itself, forks a goroutine for each other one and joins
// them before the fold, so one worker needs none. A finished rank's
// carrier goes back to the pool; a deadlocked one's is stopped. Either way
// its rank's state is reset. A rank that calls runtime.Goexit ends its
// carrier and the goroutine that ran its worker's window. On a forked
// goroutine, that window ends early and the run fails with an error that
// names the rank; on the coordinator, runPEvent never returns, as the
// caller's goroutine is the one that ends. Either way the dead carrier is
// never pooled.
func runPEvent(w *World, fn func(c *Comm) error, workers int, neverBlocks func(rank int) bool, probe *KernelCounters) error {
	procs := w.procs
	nw := peWorkerCount(workers, procs)
	k := &eventEngine{
		w:        w,
		fn:       fn,
		workers:  make([]*peWorker, nw),
		carriers: make([]*carrier, procs),
	}
	w.eng = k
	takeCarriers(k)
	for i := range k.workers {
		pw := &peWorker{k: k, id: i, lo: i * procs / nw, hi: (i + 1) * procs / nw}
		pw.q.ring = make([]int32, pw.hi-pw.lo)
		k.workers[i] = pw
		for r := pw.lo; r < pw.hi; r++ {
			k.carriers[r].worker = int32(i)
			k.carriers[r].direct = neverBlocks != nil && neverBlocks(r)
			// Seed: every rank starts runnable, in rank order.
			pw.wake(r)
		}
	}
	active := make([]*peWorker, 0, nw) // per-window scratch: workers with queued ranks
	windows := 0
	for {
		total := 0
		for _, pw := range k.workers {
			total += pw.ndone
		}
		if total == procs {
			break
		}
		active = active[:0]
		for _, pw := range k.workers {
			if pw.q.Len() > 0 {
				active = append(active, pw)
			}
		}
		if len(active) == 0 {
			// Every undone rank is parked, no outbox or release is pending
			// (fold drained them), and no run queue holds a rank: that is
			// a proof of deadlock, so fail, and stop their carriers below.
			w.fail = fmt.Errorf("mpi: deadlock: %d of %d ranks blocked with no runnable event", procs-total, procs)
			break
		}
		windows++
		k.forked.Add(len(active) - 1)
		for _, pw := range active[1:] {
			go pw.forkedWindow()
		}
		active[0].runWindow()
		k.forked.Wait()
		k.fold()
	}
	// Stopping a carrier unwinds its rank, which may wake others through
	// k.carriers, so every stop comes before any reset. A stopped carrier
	// is reset too: the slab it came from may stay alive in a pooled one.
	for _, c := range k.carriers {
		if !c.done && c.next != nil {
			c.stop()
			c.done = false // its rank has returned, but its coroutine is spent
		}
	}
	n := 0
	for _, c := range k.carriers {
		if c.done && !c.exited {
			k.carriers[n] = c
			n++
		}
		c.reset()
	}
	idle.mu.Lock()
	idle.free = append(idle.free, k.carriers[:n]...)
	idle.mu.Unlock()
	if probe != nil {
		*probe = KernelCounters{Windows: windows, StagedMsgs: k.staged}
		for _, pw := range k.workers {
			probe.Activations += pw.activations
			probe.Parks += pw.parks
		}
	}
	return w.fail
}
