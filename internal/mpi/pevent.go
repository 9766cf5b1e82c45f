package mpi

// The engine behind every kernel name. Ranks are passive states: a rank's
// program runs on a carrier, a runtime coroutine (iter.Pull) that carries
// its suspended stack and, pooled with it, outlives the run. A worker
// takes the next rank off its run queue — the ranks woken and not yet run,
// in the order they were woken — and switches to it (next); a blocking MPI
// call switches back (yield). Both are runtime.coroswitch: the thread
// passes from worker to rank and back without the Go scheduler, a wake-up
// of an idle P or a futex. Message envelopes live in slabs indexed by
// int32 and recycled through a free list, so memory per rank is flat: a
// parked coroutine, one pending-queue header, a wait record and a
// run-queue slot.
//
// Ranks are partitioned into contiguous blocks across workers, each
// owning a private run queue, message slab and its ranks' carriers, and
// running one rank at a time. A window runs every worker until its queue
// is empty — every rank it owns has finished or is parked on something
// only another worker or the fold can supply — staging sends to other
// workers' ranks into per-(src-worker, dst-worker) lanes. The fold then,
// single-threaded, merges the lanes in (src-worker, injection) order,
// delivers barrier releases and propagates a failure. KernelEvent is one
// worker: one window on the caller's goroutine, a sequential
// discrete-event scheduler with no synchronization at all.
// KernelGoroutine and KernelParallelEvent run Options.Workers workers.
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
//  2. Matching is FIFO per (src, tag), and all of a source rank's
//     messages to one destination ride one lane in program order, so the
//     only queue order matching can observe survives any merge.
//  3. A message's arrival time is a pure function of its content (sender
//     clock at injection, size, epoch, endpoint pair), never of when the
//     host delivered it or ran its receiver; it is priced once, by the
//     receiver, when the Recv completes.
//  4. A barrier releases every participant at the maximum contributed
//     clock, which is order-independent. With several workers every
//     participant, the last arriver included, leaves at the fold: a
//     release wakes ranks of other workers, and the fold is the one place
//     where another worker's run queue may be written.
//
// No Comm call reports whether a message has been queued yet, so these
// four cover everything a program can observe. Any schedule that respects
// per-rank program order therefore yields identical clocks, stats and
// traces: byte-identity across kernel names and worker counts, on a
// zero-latency network too, is by construction. The differential harness
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

// stagedMsg is one cross-worker message parked in a staging lane until
// the window fold merges it into the destination worker's state.
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
// over the single window of a one-worker run.
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
// (fin: idle again), stop unwinds it for good; yield is its side of the
// switch. k and rank assign the next rank, and k is dropped as that rank
// starts, so an idle carrier holds no World, engine or rank program. The
// switch carries no value: a zero-size one costs iter.Pull no allocation.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	k     *eventEngine
	rank  int
	fin   bool
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
		c.stop()
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
// and the rest new ones from one slab (which a pooled carrier keeps alive).
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
		c.k, c.rank = k, r
	}
}

// KernelCounters is what the engine did on the host during one Run
// (Options.Probe). The counts are a function of the program, the cost
// model and the worker count only — they repeat exactly from run to run
// — and never reach a clock, a Stats, a trace or a report.
type KernelCounters struct {
	Windows     int // every worker run until its queue was empty, then one fold
	Activations int // resumes of a rank's coroutine
	Parks       int // suspensions of a rank in Recv or Barrier
	StagedMsgs  int // cross-worker messages that waited in a lane for a fold
}

// peWorker is one worker's shard of the kernel: the run queue, slab and
// staging lanes for its contiguous block of ranks [lo, hi). All fields
// are touched only by whichever goroutine runs the worker's window (one
// rank coroutine runs at a time per worker) and by the coordinator
// between windows; the start/ready channel handoffs order the two.
type peWorker struct {
	k      *eventEngine
	id     int
	lo, hi int
	q      runQueue
	slab   []message
	free   []int32
	// lanes[d] stages this worker's sends to ranks of worker d this
	// window, in injection order.
	lanes [][]stagedMsg
	ndone int
	// Host-side tallies for KernelCounters, summed when Run returns.
	activations, parks int
	// start/ready frame one window between the coordinator and this
	// worker's goroutine; nil for worker 0, whose windows the coordinator
	// always runs itself.
	start chan struct{}
	ready chan struct{}
}

// eventEngine is the per-World state of the engine. The per-rank slices
// are sharded by ownership: entry r is touched only by the worker owning
// rank r (or by the coordinator between windows). The barrier state is
// the one genuinely shared region — ranks of different workers arrive
// concurrently — and is guarded by barMu.
type eventEngine struct {
	w       *World
	fn      func(c *Comm) error // the rank program
	workers []*peWorker
	owner   []int32 // rank -> owning worker
	// Sharded per-rank state (see struct comment). pending[r] is rank r's
	// receive queue in injection order (indices into its worker's slab,
	// which stay valid across slab growth where pointers would dangle);
	// scheduled[r] is set while rank r sits in its worker's run queue, so
	// it is never queued twice; done[r] lets a worker skip stale wakes;
	// carriers[r] is rank r's carrier.
	pending   [][]int32
	waiting   []waitState
	scheduled []bool
	done      []bool
	carriers  []*carrier

	barMu           sync.Mutex
	barArrived      int
	barMax          float64
	barWaiting      []bool
	barReleased     []bool
	barOut          []float64
	pendingBarWakes []int32 // ranks released since the last fold, which wakes them

	staged int // host-side tally for KernelCounters, kept by fold
}

// wake makes rank runnable: it joins the back of its owning worker's run
// queue unless it is already there. The rank rescans its wait condition
// on resume, so a single wake suffices no matter how many new messages
// queued meanwhile.
func (pw *peWorker) wake(rank int) {
	k := pw.k
	if k.scheduled[rank] || k.done[rank] {
		return
	}
	k.scheduled[rank] = true
	pw.q.push(int32(rank))
}

// park suspends the calling rank coroutine until its worker resumes it.
// yield reports false only to a rank being unwound by stop, which happens
// with the fail flag up: the caller's next failure check sends it home.
func (pw *peWorker) park(rank int) {
	pw.parks++
	pw.k.carriers[rank].yield(struct{}{})
}

// alloc stores m in the worker's slab and returns its index.
func (pw *peWorker) alloc(m message) int32 {
	if n := len(pw.free); n > 0 {
		idx := pw.free[n-1]
		pw.free = pw.free[:n-1]
		pw.slab[idx] = m
		return idx
	}
	pw.slab = append(pw.slab, m)
	return int32(len(pw.slab) - 1)
}

// release zeroes the slot (dropping the payload reference) and recycles it.
func (pw *peWorker) release(idx int32) {
	pw.slab[idx] = message{}
	pw.free = append(pw.free, idx)
}

// deliver queues m for rank dst (owned by this worker) and, when dst is
// parked on a matching Recv, wakes it. The message is not priced here:
// its arrival time is the receiver's business (completeRecv).
func (pw *peWorker) deliver(m message, dst int) {
	k := pw.k
	idx := pw.alloc(m)
	k.pending[dst] = append(k.pending[dst], idx)
	if ws := k.waiting[dst]; ws.active && m.src == ws.src && (ws.tag == AnyTag || m.tag == ws.tag) {
		pw.wake(dst)
	}
}

// send is Isend's delivery: same-worker messages deliver immediately;
// cross-worker messages park in the staging lane for the destination's
// worker until the window fold.
func (k *eventEngine) send(dst int, m message) {
	sw := k.workers[k.owner[m.src]]
	dw := int(k.owner[dst])
	if dw == sw.id {
		sw.deliver(m, dst)
		return
	}
	sw.lanes[dw] = append(sw.lanes[dw], stagedMsg{m: m, dst: int32(dst)})
}

// recv is Recv's matching and waiting: consume the first queued
// (src, tag) match, or park until a sender (or a window fold merging a
// staged message) wakes the rank. The clock advance in completeRecv
// depends only on the matched message, so when the rank was woken and
// resumed never leaks into the timeline.
func (k *eventEngine) recv(c *Comm, src, tag int) (any, error) {
	rank := c.rank
	pw := k.workers[k.owner[rank]]
	for {
		if c.world.failFlag.Load() {
			return nil, errAborted(rank, "Recv")
		}
		q := k.pending[rank]
		for i, idx := range q {
			m := pw.slab[idx]
			if m.src == src && (tag == AnyTag || m.tag == tag) {
				k.pending[rank] = append(q[:i], q[i+1:]...)
				pw.release(idx)
				c.completeRecv(m)
				return m.payload, nil
			}
		}
		k.waiting[rank] = waitState{active: true, src: src, tag: tag}
		pw.park(rank)
		k.waiting[rank].active = false
	}
}

// barrier is Barrier's rendezvous: every participant leaves with the
// maximum clock contributed. Arrival counting is the only cross-worker
// rendezvous in the engine, so it takes barMu. With one worker the last
// arriver releases every parked participant directly, in ascending rank
// order; with several, every participant — the last arriver included —
// parks and leaves at the next window fold, the only place that writes
// another worker's run queue.
func (k *eventEngine) barrier(c *Comm) (float64, error) {
	rank := c.rank
	if c.world.failFlag.Load() {
		return 0, errAborted(rank, "Barrier")
	}
	pw := k.workers[k.owner[rank]]
	k.barMu.Lock()
	if t := c.clock.Now(); t > k.barMax {
		k.barMax = t
	}
	k.barArrived++
	if k.barArrived == c.world.procs {
		out := k.barMax
		k.barArrived = 0
		k.barMax = 0
		single := len(k.workers) == 1
		for r := 0; r < c.world.procs; r++ {
			if !k.barWaiting[r] {
				continue
			}
			k.barWaiting[r] = false
			k.barReleased[r] = true
			k.barOut[r] = out
			if single {
				pw.wake(r)
			} else {
				k.pendingBarWakes = append(k.pendingBarWakes, int32(r))
			}
		}
		if single {
			k.barMu.Unlock()
			return out, nil
		}
		k.barReleased[rank] = true
		k.barOut[rank] = out
		k.pendingBarWakes = append(k.pendingBarWakes, int32(rank))
	} else {
		k.barWaiting[rank] = true
	}
	k.barMu.Unlock()
	pw.park(rank)
	k.barMu.Lock()
	if k.barReleased[rank] {
		k.barReleased[rank] = false
		out := k.barOut[rank]
		k.barMu.Unlock()
		return out, nil
	}
	// Woken without a release: the world is failing. Withdraw so the
	// count cannot go stale.
	k.barWaiting[rank] = false
	k.barArrived--
	k.barMu.Unlock()
	return 0, errAborted(rank, "Barrier")
}

// failWake wakes blocked ranks after rank failed the world, so they
// observe the failure and unwind: a failing rank wakes its own worker's
// parked ranks directly (its worker's run queue is safely accessible from
// the running coroutine); ranks of other workers are woken by the
// coordinator at every fold while the fail flag is up.
func (k *eventEngine) failWake(rank int) {
	k.workers[k.owner[rank]].wakeBlock()
}

// wakeBlock schedules every undone rank of this worker's block.
func (pw *peWorker) wakeBlock() {
	for r := pw.lo; r < pw.hi; r++ {
		if !pw.k.done[r] {
			pw.wake(r)
		}
	}
}

// runWindow resumes this worker's queued ranks, in wake order, until its
// run queue is empty, one rank coroutine at a time, on the calling
// goroutine.
func (pw *peWorker) runWindow() {
	k := pw.k
	for pw.q.Len() > 0 {
		rank := int(pw.q.pop())
		if k.done[rank] {
			continue
		}
		k.scheduled[rank] = false
		pw.activations++
		c := k.carriers[rank]
		if c.next == nil {
			// Started on first use, so a rank's first stack is the one the
			// previous rank's growth just freed.
			c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
				c.yield = yield
				for {
					k := c.k
					c.k, c.fin = nil, false
					k.w.runRank(c.rank, k.fn)
					c.fin = true
					if !yield(struct{}{}) {
						return
					}
				}
			})
		}
		if c.next(); c.fin {
			k.done[rank] = true
			pw.ndone++
		}
	}
}

// fold is the single-threaded window barrier: merge staged cross-worker
// messages (src-worker order, lane order within — deterministic, and
// per-src FIFO because each source's messages share one lane), then
// deliver deferred barrier releases, then propagate a failure to every
// worker's parked ranks.
func (k *eventEngine) fold() {
	for _, dst := range k.workers {
		for _, src := range k.workers {
			lane := src.lanes[dst.id]
			k.staged += len(lane)
			for i := range lane {
				dst.deliver(lane[i].m, int(lane[i].dst))
			}
			src.lanes[dst.id] = lane[:0]
		}
	}
	for _, r := range k.pendingBarWakes {
		k.workers[k.owner[r]].wake(int(r))
	}
	k.pendingBarWakes = k.pendingBarWakes[:0]
	if k.w.failFlag.Load() {
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
// goroutine is the window coordinator and runs the first worker that has
// queued ranks itself; every other worker's windows run on a goroutine of
// its own, so one worker needs none. A finished rank's carrier goes back
// to the pool; a deadlocked one's is stopped. A rank that calls
// runtime.Goexit ends its carrier and unwinds the worker that resumed it.
func runPEvent(w *World, fn func(c *Comm) error, workers int, probe *KernelCounters) error {
	procs := w.procs
	nw := peWorkerCount(workers, procs)
	k := &eventEngine{
		w:           w,
		fn:          fn,
		workers:     make([]*peWorker, nw),
		owner:       make([]int32, procs),
		pending:     make([][]int32, procs),
		waiting:     make([]waitState, procs),
		scheduled:   make([]bool, procs),
		done:        make([]bool, procs),
		carriers:    make([]*carrier, procs),
		barWaiting:  make([]bool, procs),
		barReleased: make([]bool, procs),
		barOut:      make([]float64, procs),
	}
	w.eng = k
	takeCarriers(k)
	for i := range k.workers {
		pw := &peWorker{
			k:     k,
			id:    i,
			lo:    i * procs / nw,
			hi:    (i + 1) * procs / nw,
			lanes: make([][]stagedMsg, nw),
		}
		pw.q.ring = make([]int32, pw.hi-pw.lo)
		k.workers[i] = pw
		for r := pw.lo; r < pw.hi; r++ {
			k.owner[r] = int32(i)
			// Seed: every rank starts runnable, in rank order.
			pw.wake(r)
		}
		if i > 0 {
			pw.start, pw.ready = make(chan struct{}), make(chan struct{})
			go func() {
				for range pw.start {
					pw.runWindow()
					pw.ready <- struct{}{}
				}
			}()
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
			// Every undone rank is parked, no lane or release is pending
			// (fold drained them), and no run queue holds a rank: that is
			// a proof of deadlock, so fail, and stop their carriers below.
			w.setFail(fmt.Errorf("mpi: deadlock: %d of %d ranks blocked with no runnable event", procs-total, procs))
			break
		}
		windows++
		for _, pw := range active[1:] {
			pw.start <- struct{}{}
		}
		active[0].runWindow()
		for _, pw := range active[1:] {
			<-pw.ready
		}
		k.fold()
	}
	for _, pw := range k.workers[1:] {
		close(pw.start)
	}
	// Stopping a carrier unwinds its rank, which may park through
	// k.carriers, so every stop comes before the pool takes the rest.
	for r, c := range k.carriers {
		if !k.done[r] && c.next != nil {
			c.stop()
		}
	}
	idle.mu.Lock()
	for r, c := range k.carriers {
		if k.done[r] {
			idle.free = append(idle.free, c)
		}
	}
	idle.mu.Unlock()
	if probe != nil {
		*probe = KernelCounters{Windows: windows, StagedMsgs: k.staged}
		for _, pw := range k.workers {
			probe.Activations += pw.activations
			probe.Parks += pw.parks
		}
	}
	return w.failed()
}
