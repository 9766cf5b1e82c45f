package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one cell or job share a
// trace id; Parent is the id of the span that caused this one (-1 for a
// root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Trace  int              `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory; they are written out only when the run
// ends. The traced run is single-threaded (one cell, one client at a time),
// so the recorder needs no lock and sibling spans never overlap.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(trace, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// add records a span whose instants were taken elsewhere.
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) count(id int, key string, n int64) {
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

// in runs fn inside a span.
func (r *recorder) in(trace, parent int, name string, fn func(id int)) {
	id := r.begin(trace, parent, name)
	fn(id)
	r.end(id)
}

// selfTimes returns each span's duration minus its children's durations.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations returns the duration in ms of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total returns the summed duration of every span called name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// budgetRow is one layer's share of the traced wall time.
type budgetRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_pct"`
}

// budget sums self time by span name. Spans nest and siblings do not
// overlap, so the rows add up to wall, the time the root spans cover.
func (r *recorder) budget() (rows []budgetRow, wall time.Duration) {
	self := r.selfTimes()
	by := map[string]*budgetRow{}
	for i, s := range r.spans {
		if s.Parent < 0 {
			wall += time.Duration(s.End - s.Start)
		}
		row := by[s.Name]
		if row == nil {
			row = &budgetRow{Name: s.Name}
			by[s.Name] = row
		}
		row.Calls++
		row.SelfMS += ms(self[i])
	}
	for _, row := range by {
		row.Share = 100 * row.SelfMS / ms(wall)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].SelfMS > rows[k].SelfMS })
	return rows, wall
}

// printBudget prints the rows under the traced rounds' measured wall time,
// which the rows' sum has to match.
func printBudget(w io.Writer, workload string, rows []budgetRow, wall, measured time.Duration) {
	fmt.Fprintf(w, "# %s: traced wall %.1f ms; self times sum to %.2f%% of it\n", workload, ms(measured), 100*float64(wall)/float64(measured))
	for _, row := range rows {
		fmt.Fprintf(w, "#   %-28s %8d calls %10.2f ms self %6.2f%%\n", row.Name, row.Calls, row.SelfMS, row.Share)
	}
}

// flush writes the spans and their budget to path.
func (r *recorder) flush(path, workload string) error {
	rows, wall := r.budget()
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		WallMS   float64     `json:"traced_wall_ms"`
		Budget   []budgetRow `json:"budget"`
		Spans    []span      `json:"spans"`
	}{workload, ms(wall), rows, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
