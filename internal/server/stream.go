package server

import (
	"encoding/json"
	"sync"
)

// streamLine is one event of a job's live stream: a kind tag plus one
// compact JSON object (no trailing newline). For trace rows the JSON is
// the canonical trace JSONL line, so an NDJSON subscriber receives bytes
// identical to the post-run trace encoding.
type streamLine struct {
	kind string
	data []byte
}

// stream is an append-only broadcast buffer: the job runner appends
// lines, any number of subscribers replay from the start and then follow
// live. Subscribers that join after the job finished replay the complete
// stream — determinism makes the replay as good as the live feed.
type stream struct {
	mu      sync.Mutex
	lines   []streamLine
	closed  bool
	changed chan struct{} // closed and replaced on every append/close
}

func newStream() *stream {
	return &stream{changed: make(chan struct{})}
}

// append adds one event and wakes subscribers.
func (s *stream) append(kind string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.lines = append(s.lines, streamLine{kind: kind, data: data})
	close(s.changed)
	s.changed = make(chan struct{})
}

// appendJSON marshals v and appends it under kind; marshal failures are
// impossible for the plain structs streamed here and are dropped.
func (s *stream) appendJSON(kind string, v any) {
	if b, err := json.Marshal(v); err == nil {
		s.append(kind, b)
	}
}

// close marks the stream complete and wakes subscribers one last time.
func (s *stream) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.changed)
	s.changed = make(chan struct{})
}

// snapshot returns the lines from index from on, whether the stream is
// closed, and a channel that is closed on the next append/close — the
// subscriber loop's wait handle.
func (s *stream) snapshot(from int) (lines []streamLine, closed bool, wait <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < len(s.lines) {
		lines = s.lines[from:]
	}
	return lines, s.closed, s.changed
}

// cellTracker releases "cell" progress events in deterministic cell
// order even though the worker pool completes cells in arbitrary order:
// an event is streamed only once every earlier cell has completed.
type cellTracker struct {
	st       *stream
	mu       sync.Mutex
	lines    [][]byte
	done     []bool
	released int
}

// cellEvent is the streamed per-cell progress record.
type cellEvent struct {
	Kind     string  `json:"kind"`
	Index    int     `json:"index"`
	Of       int     `json:"of"`
	Cached   bool    `json:"cached"`
	ElapsedS float64 `json:"elapsed_s"`
}

func newCellTracker(st *stream, cells int) *cellTracker {
	return &cellTracker{st: st, lines: make([][]byte, cells), done: make([]bool, cells)}
}

// cellDone records cell i's completion and streams every newly
// releasable cell event in index order.
func (t *cellTracker) cellDone(i int, ev cellEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		b = nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.done) || t.done[i] {
		return
	}
	t.done[i] = true
	t.lines[i] = b
	for t.released < len(t.done) && t.done[t.released] {
		if t.lines[t.released] != nil {
			t.st.append("cell", t.lines[t.released])
		}
		t.released++
	}
}
