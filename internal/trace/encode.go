package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Deterministic trace encodings, in the spirit of the experiments
// package's report encoders: records are encoded from structs with stable
// field order, floats use Go's shortest round-trip representation, and
// every recorded value is a deterministic virtual time — so encoding the
// trace of the same run twice yields byte-identical output.

// Formats returns the accepted Write format names.
func Formats() []string { return []string{"jsonl", "csv"} }

// Write renders the recorded trace to w as "jsonl" or "csv".
func Write(w io.Writer, format string, r *Recorder) error {
	switch format {
	case "", "jsonl":
		return WriteJSONL(w, r)
	case "csv":
		return WriteCSV(w, r)
	default:
		return fmt.Errorf("trace: unknown format %q (known: %v)", format, Formats())
	}
}

// jsonl line shapes: a "kind" discriminator first, then the record.
type sampleLine struct {
	Kind string `json:"kind"`
	Sample
}

type migrationLine struct {
	Kind string `json:"kind"`
	Migration
}

type seriesLine struct {
	Kind string `json:"kind"`
	Derived
}

// writeIteration hands emit iteration it's canonical JSONL lines, each
// compact JSON with no trailing newline, tagged with its kind: one
// "sample" line per processor (rank ascending), the "migration" lines
// executed by that iteration's balancing invocation (read from
// r.migrations[*next:], advancing *next past them), then the "series"
// line for d. WriteJSONL and the live release (Follow) both encode
// through it.
func (r *Recorder) writeIteration(it int, d Derived, next *int, emit func(kind string, line []byte) error) error {
	line := func(kind string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return emit(kind, b)
	}
	for _, s := range r.samples[(it-1)*r.procs : it*r.procs] {
		if err := line("sample", sampleLine{Kind: "sample", Sample: s}); err != nil {
			return err
		}
	}
	for ; *next < len(r.migrations) && r.migrations[*next].Iter == it; *next++ {
		if err := line("migration", migrationLine{Kind: "migration", Migration: r.migrations[*next]}); err != nil {
			return err
		}
	}
	return line("series", seriesLine{Kind: "series", Derived: d})
}

// WriteJSONL writes the trace as JSON Lines, interleaved in iteration
// order: for each iteration, one "sample" line per processor (rank
// ascending), then any "migration" lines executed by that iteration's
// balancing invocation, then one "series" line with the derived metrics.
func WriteJSONL(w io.Writer, r *Recorder) error {
	next := 0
	for it := 1; it <= r.iters; it++ {
		if err := r.writeIteration(it, r.series[it-1], &next, func(_ string, line []byte) error {
			_, err := w.Write(append(line, '\n'))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// ftoa renders a float with Go's shortest round-trip representation.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes the trace as three header+rows blocks separated by
// blank lines: samples, migrations, series.
func WriteCSV(w io.Writer, r *Recorder) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iter", "proc", "compute_s", "overhead_s", "comm_s",
		"idle_s", "balance_s", "msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv", "speed_factor"}); err != nil {
		return err
	}
	for _, s := range r.samples {
		rec := []string{
			strconv.Itoa(s.Iter), strconv.Itoa(s.Proc),
			ftoa(s.ComputeS), ftoa(s.OverheadS), ftoa(s.CommS), ftoa(s.IdleS), ftoa(s.BalanceS),
			strconv.Itoa(s.MsgsSent), strconv.Itoa(s.MsgsRecv),
			strconv.Itoa(s.BytesSent), strconv.Itoa(s.BytesRecv),
			ftoa(s.SpeedFactor),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	if err := cw.Write([]string{"iter", "node", "from", "to", "benefit_s"}); err != nil {
		return err
	}
	for _, m := range r.migrations {
		rec := []string{strconv.Itoa(m.Iter), strconv.Itoa(m.Node),
			strconv.Itoa(m.From), strconv.Itoa(m.To), ftoa(m.BenefitS)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	if err := cw.Write([]string{"iter", "imbalance", "edge_cut"}); err != nil {
		return err
	}
	for _, d := range r.series {
		if err := cw.Write([]string{strconv.Itoa(d.Iter), ftoa(d.Imbalance), strconv.Itoa(d.EdgeCut)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
