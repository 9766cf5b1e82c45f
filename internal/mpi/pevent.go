package mpi

// The event-driven kernel behind both event kernel names. Ranks are
// passive states: goroutines survive only as suspended stack carriers
// parked on an unbuffered resume channel, woken by events popped from a
// priority queue ordered on (virtual time, rank, seq). Message envelopes
// live in slabs indexed by int32 and recycled through a free list, so
// memory per rank is flat: a parked goroutine, one pending-queue header
// and a wait record.
//
// Ranks are partitioned into contiguous blocks across workers, each
// owning a private event heap, message slab and coroutine carriers, and
// running one rank at a time. KernelEvent is one worker: a single window
// with an infinite horizon, i.e. a sequential discrete-event scheduler
// that needs no synchronization at all. KernelParallelEvent shards over
// min(GOMAXPROCS, procs) workers and proceeds in windows: the
// coordinator computes the global floor (the minimum next event time
// across workers) and a safe horizon floor + lookahead, where lookahead
// is the cost model's MinDelay — the classic Chandy–Misra–Bryant
// conservative bound: no message injected inside the window can demand a
// wake-up below the horizon of a sibling worker. Workers then execute
// their events below the horizon concurrently, staging cross-worker
// sends into per-(src-worker, dst-worker) lanes; the coordinator merges
// the lanes at the window barrier, in (src-worker, injection) order.
//
// Byte-identity with the goroutine kernel, at any worker count, is by
// construction, not by scheduling luck or windowing: a message's arrival
// time is a pure function of its content (sender clock at injection,
// size, epoch, endpoint pair); matching is FIFO per (src, tag) with the
// source always named, and all of a source rank's messages to a given
// destination ride the same lane in program order, so per-src FIFO — the
// only queue order matching can observe — survives any merge
// interleaving. The barrier releases every participant at the maximum
// contributed clock, which is order-independent. Any schedule that
// respects per-rank program order therefore yields identical clocks,
// stats and traces (TestKernelEquivalence pins this bit-for-bit across
// every registered scenario), and the lookahead is purely a performance
// knob (how much each worker may run ahead between synchronizations);
// MinDelay == 0 degrades to lock-step windows, never to wrong answers.
//
// The one seam where cross-worker timing could leak into a program is
// Probe, which observes whether a message is already queued. One worker
// and the goroutine kernel guarantee that everything sent before a
// barrier is visible after it; to preserve that, a multi-worker barrier
// releases every participant — the last arriver included — only at the
// next window fold, after staged lanes have merged.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// stagedMsg is one cross-worker message parked in a staging lane until
// the window fold merges it into the destination worker's state.
type stagedMsg struct {
	m   message
	dst int32
}

// barWake is a deferred barrier release: rank leaves the barrier with
// clock out at the next window fold.
type barWake struct {
	rank int32
	out  float64
}

// peWorker is one worker's shard of the kernel: the event heap, slab and
// staging lanes for its contiguous block of ranks [lo, hi). All fields
// are touched only by the worker's own goroutine during a window (one
// rank coroutine runs at a time per worker) and by the coordinator
// between windows; the start/ready channel handoffs order the two.
type peWorker struct {
	k      *eventEngine
	id     int
	lo, hi int
	q      eventQueue
	seq    uint64
	slab   []message
	free   []int32
	// lanes[d] stages this worker's sends to ranks of worker d this
	// window, in injection order.
	lanes [][]stagedMsg
	ndone int
	// yield hands control from a rank coroutine back to the worker;
	// start/ready frame one window between coordinator and worker.
	yield chan struct{}
	start chan struct{}
	ready chan struct{}
}

// eventEngine is the per-World state of the event-driven kernel. The
// per-rank slices are sharded by ownership: entry r is touched only by
// the worker owning rank r (or by the coordinator between windows). The
// barrier state is the one genuinely shared region — ranks of different
// workers arrive concurrently — and is guarded by barMu.
type eventEngine struct {
	w         *World
	workers   []*peWorker
	owner     []int32 // rank -> owning worker
	lookahead float64
	// floor/horizon frame the current window; written by the
	// coordinator before the start signal, read by workers after it.
	floor   float64
	horizon float64
	// Sharded per-rank state (see struct comment). pending[r] is rank r's
	// receive queue in injection order (indices into its worker's slab,
	// which stay valid across slab growth where pointers would dangle);
	// scheduled[r] guards the at-most-one-outstanding-event-per-rank
	// invariant; done[r] lets a worker skip stale wakes. resume[r] hands
	// control to rank r and its worker's yield hands it back: both are
	// unbuffered, so each handoff is a strict rendezvous (and a
	// happens-before edge for the race detector).
	pending   [][]int32
	waiting   []waitState
	scheduled []bool
	done      []bool
	resume    []chan struct{}

	barMu           sync.Mutex
	barArrived      int
	barMax          float64
	barWaiting      []bool
	barReleased     []bool
	barOut          []float64
	pendingBarWakes []barWake

	active     []*peWorker // per-window scratch: workers with events
	deadlocked bool
}

// wake makes rank runnable at virtual time t on its owning worker's
// heap. At most one event per rank is outstanding: the rank rescans its
// wait condition on resume, so a single wake suffices no matter how many
// new messages queued meanwhile.
func (pw *peWorker) wake(rank int, t float64) {
	k := pw.k
	if k.scheduled[rank] || k.done[rank] {
		return
	}
	k.scheduled[rank] = true
	pw.seq++
	pw.q.push(event{time: t, rank: int32(rank), seq: pw.seq})
}

// park suspends the calling rank coroutine until its worker resumes it.
func (pw *peWorker) park(rank int) {
	pw.yield <- struct{}{}
	<-pw.k.resume[rank]
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
// parked on a matching Recv, schedules its wake at the arrival time.
func (pw *peWorker) deliver(m message, dst int) {
	k := pw.k
	idx := pw.alloc(m)
	k.pending[dst] = append(k.pending[dst], idx)
	if ws := k.waiting[dst]; ws.active && m.src == ws.src && (ws.tag == AnyTag || m.tag == ws.tag) {
		pw.wake(dst, k.w.arrival(m, dst))
	}
}

// send is the event-kernel half of Isend: same-worker messages deliver
// immediately; cross-worker messages park in the staging lane for the
// destination's worker until the window fold.
func (k *eventEngine) send(dst int, m message) {
	sw := k.workers[k.owner[m.src]]
	dw := int(k.owner[dst])
	if dw == sw.id {
		sw.deliver(m, dst)
		return
	}
	sw.lanes[dw] = append(sw.lanes[dw], stagedMsg{m: m, dst: int32(dst)})
}

// recv is the event-kernel half of Recv: consume the first queued
// (src, tag) match, or park until a sender (or a window fold merging a
// staged message) schedules a wake. The clock advance in completeRecv
// depends only on the matched message, so the wake time itself never
// leaks into the timeline.
func (k *eventEngine) recv(c *Comm, src, tag int) (any, error) {
	rank := c.rank
	pw := k.workers[k.owner[rank]]
	for {
		if c.world.failFlag.Load() {
			return nil, fmt.Errorf("mpi: rank %d Recv aborted: sibling rank failed", rank)
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

// probe is the event-kernel half of Probe. Staged cross-worker messages
// are invisible until their fold — which is exactly the visibility the
// goroutine kernel guarantees: Probe only promises to see messages whose
// send is ordered before it (own sends, or sends from before a completed
// barrier), and barriers under this kernel release only after lanes
// merge.
func (k *eventEngine) probe(rank, src, tag int) bool {
	pw := k.workers[k.owner[rank]]
	for _, idx := range k.pending[rank] {
		m := &pw.slab[idx]
		if m.src == src && (tag == AnyTag || m.tag == tag) {
			return true
		}
	}
	return false
}

// barrier is the event-kernel Barrier. Arrival counting is the only
// cross-worker rendezvous in the kernel, so it takes barMu. With one
// worker the last arriver releases every parked participant directly,
// in ascending rank order at the release time; with several, every
// participant — the last arriver included — parks and leaves at the
// next window fold, after staged lanes merge, so post-barrier Probe sees
// every pre-barrier message.
func (k *eventEngine) barrier(c *Comm) (float64, error) {
	rank := c.rank
	if c.world.failFlag.Load() {
		return 0, fmt.Errorf("mpi: rank %d Barrier aborted: sibling rank failed", rank)
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
				pw.wake(r, out)
			} else {
				k.pendingBarWakes = append(k.pendingBarWakes, barWake{rank: int32(r), out: out})
			}
		}
		if single {
			k.barMu.Unlock()
			return out, nil
		}
		k.barReleased[rank] = true
		k.barOut[rank] = out
		k.pendingBarWakes = append(k.pendingBarWakes, barWake{rank: int32(rank), out: out})
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
	// count cannot go stale, mirroring the goroutine barrier's abort.
	k.barWaiting[rank] = false
	k.barArrived--
	k.barMu.Unlock()
	return 0, fmt.Errorf("mpi: rank %d Barrier aborted: sibling rank failed", rank)
}

// failWake is the event-kernel half of World.failWake: a failing rank
// wakes its own worker's parked ranks directly (its worker's heap is
// safely accessible from the running coroutine); ranks of other workers
// are woken by the coordinator at every fold while the fail flag is up.
func (k *eventEngine) failWake(rank int) {
	pw := k.workers[k.owner[rank]]
	pw.wakeBlock()
}

// wakeBlock schedules every undone rank of this worker's block.
func (pw *peWorker) wakeBlock() {
	for r := pw.lo; r < pw.hi; r++ {
		if !pw.k.done[r] {
			pw.wake(r, 0)
		}
	}
}

// runWindow executes this worker's events strictly below the window
// horizon (plus anything at the global floor, the progress guarantee
// when lookahead is zero), one rank coroutine at a time.
func (pw *peWorker) runWindow() {
	k := pw.k
	for pw.q.Len() > 0 {
		top := pw.q.h[0]
		if top.time >= k.horizon && top.time > k.floor {
			break
		}
		e := pw.q.pop()
		rank := int(e.rank)
		if k.done[rank] {
			continue
		}
		k.scheduled[rank] = false
		k.resume[rank] <- struct{}{}
		<-pw.yield
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
			for i := range lane {
				dst.deliver(lane[i].m, int(lane[i].dst))
			}
			src.lanes[dst.id] = lane[:0]
		}
	}
	for _, bw := range k.pendingBarWakes {
		k.workers[k.owner[bw.rank]].wake(int(bw.rank), bw.out)
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
	if workers > procs {
		workers = procs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPEvent drives fn across w.procs ranks under the event-driven kernel
// and blocks until every rank returns. The calling goroutine becomes the
// window coordinator; each worker runs its shard's windows on its own
// goroutine; rank goroutines exist only to carry suspended stacks.
func runPEvent(w *World, fn func(c *Comm) error, workers int) error {
	procs := w.procs
	nw := peWorkerCount(workers, procs)
	k := &eventEngine{
		w:           w,
		workers:     make([]*peWorker, nw),
		owner:       make([]int32, procs),
		lookahead:   w.cost.MinDelay(),
		pending:     make([][]int32, procs),
		waiting:     make([]waitState, procs),
		scheduled:   make([]bool, procs),
		done:        make([]bool, procs),
		resume:      make([]chan struct{}, procs),
		barWaiting:  make([]bool, procs),
		barReleased: make([]bool, procs),
		barOut:      make([]float64, procs),
		active:      make([]*peWorker, 0, nw),
	}
	w.eng = k
	for r := range k.resume {
		k.resume[r] = make(chan struct{})
	}
	for i := range k.workers {
		pw := &peWorker{
			k:     k,
			id:    i,
			lo:    i * procs / nw,
			hi:    (i + 1) * procs / nw,
			lanes: make([][]stagedMsg, nw),
			yield: make(chan struct{}),
			start: make(chan struct{}),
			ready: make(chan struct{}),
		}
		k.workers[i] = pw
		for r := pw.lo; r < pw.hi; r++ {
			k.owner[r] = int32(i)
		}
	}
	for _, pw := range k.workers {
		pw := pw
		for r := pw.lo; r < pw.hi; r++ {
			go func(rank int) {
				<-k.resume[rank]
				w.runRank(rank, fn)
				k.done[rank] = true
				pw.ndone++
				pw.yield <- struct{}{}
			}(r)
		}
		// Seed: every rank becomes runnable at time zero, in rank order.
		for r := pw.lo; r < pw.hi; r++ {
			pw.wake(r, 0)
		}
		go func() {
			for range pw.start {
				pw.runWindow()
				pw.ready <- struct{}{}
			}
		}()
	}
	for {
		total := 0
		for _, pw := range k.workers {
			total += pw.ndone
		}
		if total == procs {
			break
		}
		floor := math.Inf(1)
		for _, pw := range k.workers {
			if pw.q.Len() > 0 && pw.q.h[0].time < floor {
				floor = pw.q.h[0].time
			}
		}
		if math.IsInf(floor, 1) {
			// Every undone rank is parked, no lane or release is pending
			// (fold drained them), and no heap holds an event. The
			// goroutine kernel hangs here; this one can prove the deadlock
			// and fail instead.
			if k.deadlocked {
				break
			}
			k.deadlocked = true
			w.setFail(fmt.Errorf("mpi: deadlock: %d of %d ranks blocked with no runnable event", procs-total, procs))
			for _, pw := range k.workers {
				pw.wakeBlock()
			}
			continue
		}
		k.floor = floor
		if nw == 1 {
			// One worker needs no conservative horizon: there is no
			// sibling to synchronize with, so the whole run is one window
			// — a sequential discrete-event scheduler.
			k.horizon = math.Inf(1)
		} else {
			k.horizon = floor + k.lookahead
		}
		k.active = k.active[:0]
		for _, pw := range k.workers {
			if pw.q.Len() > 0 {
				k.active = append(k.active, pw)
			}
		}
		for _, pw := range k.active {
			pw.start <- struct{}{}
		}
		for _, pw := range k.active {
			<-pw.ready
		}
		k.fold()
	}
	for _, pw := range k.workers {
		close(pw.start)
	}
	return w.failed()
}
