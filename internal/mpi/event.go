package mpi

// The scheduler queue of the event-driven kernel (pevent.go): wake events
// in a min-heap ordered on (virtual time, rank, seq), and the record of
// what a parked rank is waiting for.

// event is one scheduler wake-up: rank becomes runnable at virtual time
// time. seq is the owning worker's injection counter, so ordering on
// (time, rank, seq) is total and FIFO among equal-time wake-ups of the
// same rank — the deterministic tie-break the fuzz target pins.
type event struct {
	time float64
	rank int32
	seq  uint64
}

// eventLess is the strict weak ordering of the scheduler queue.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled binary min-heap on eventLess. It is not
// container/heap: push and pop stay allocation-free and inlineable,
// which BenchmarkEventQueue measures.
type eventQueue struct {
	h []event
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.h) }

// push inserts e.
func (q *eventQueue) push(e event) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (q *eventQueue) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && eventLess(q.h[l], q.h[s]) {
			s = l
		}
		if r < n && eventLess(q.h[r], q.h[s]) {
			s = r
		}
		if s == i {
			break
		}
		q.h[i], q.h[s] = q.h[s], q.h[i]
		i = s
	}
	return top
}

// waitState records why a parked rank is blocked in Recv, so the sender
// of a matching message can schedule a precise wake instead of the
// goroutine kernel's broadcast-and-rescan.
type waitState struct {
	active   bool
	src, tag int
}
