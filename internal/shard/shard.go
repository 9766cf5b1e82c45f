// Package shard splits a sweep's parameter space into independent,
// separately-runnable chunks coordinated through a manifest file.
//
// A sweep (experiments.Axes over one scenario) enumerates its cells in a
// deterministic order; shard assigns each cell to exactly one of n shards
// by a contiguous balanced split. The manifest records the full cell list
// — index, cache key, owning shard, completion state, and (once run) the
// cell's serialized result — so progress is explicit: there are no silent
// gaps, a cell is either done with its result bytes present or visibly
// remaining, and the manifest itself carries the verification commands
// that finish and check the sweep.
//
// Because every cell is a pure function of its normalized parameters,
// merging a completed manifest reassembles the exact report a
// single-machine sweep would have produced: Merge feeds the stored
// results through the same RunSweepWith assembly path (speedup groups,
// row order, encoders), so the merged JSON/CSV/text output is
// byte-identical to an unsharded run at any parallelism.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
)

// Version is the manifest wire-format version. Decode rejects manifests
// whose version field does not match exactly, so a format change cannot
// be silently misread.
const Version = "ic2mpi.manifest.v1"

// Cell is one sweep cell's entry in a manifest.
type Cell struct {
	// Index is the cell's position in the sweep's deterministic
	// enumeration (experiments.Axes.Cells).
	Index int `json:"index"`
	// Key is the cell's cache key (experiments.CellKey) — the stable
	// identity of the deterministic run this cell denotes.
	Key string `json:"key"`
	// Shard is the owning shard, 0-based.
	Shard int `json:"shard"`
	// Done reports whether Result holds the cell's completed result.
	Done bool `json:"done"`
	// Result is the serialized scenario.Result once the cell has run.
	Result json.RawMessage `json:"result,omitempty"`
}

// Manifest coordinates one sharded sweep: the swept scenario and axes,
// the shard count, and one entry per cell.
type Manifest struct {
	// Version is the wire-format version (Version).
	Version string `json:"version"`
	// Scenario is the swept scenario's name.
	Scenario string `json:"scenario"`
	// Spec is the original -sweep axis specification, kept for the
	// verification commands. It is informational: Axes is authoritative,
	// and the cell keys identify the sweep (SameSweep).
	Spec string `json:"spec,omitempty"`
	// Axes is the normalized swept parameter space.
	Axes experiments.Axes `json:"axes"`
	// Shards is the number of shards the cells are split across.
	Shards int `json:"shards"`
	// Verify lists the commands that run each shard and merge the
	// results, so a manifest is self-describing about how to finish and
	// check the sweep it tracks.
	Verify []string `json:"verify"`
	// Cells is the full cell list in enumeration order.
	Cells []Cell `json:"cells"`
}

// Bounds returns the half-open cell range [lo, hi) owned by shard i of
// shards over n cells: the contiguous balanced split, sizes differing by
// at most one. Shards beyond the cell count own empty ranges.
func Bounds(n, shards, i int) (lo, hi int) {
	return i * n / shards, (i + 1) * n / shards
}

// shardOf returns the shard owning cell index under the contiguous
// balanced split — the inverse of Bounds.
func shardOf(n, shards, index int) int {
	return (index*shards + shards - 1) / n
}

// New builds the manifest of a sharded sweep of sc over ax split into
// shards parts. spec is the original -sweep specification (may be "");
// it is echoed into the manifest's verification commands.
func New(sc scenario.Scenario, spec string, ax experiments.Axes, shards int) (*Manifest, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	cells := ax.Cells()
	m := &Manifest{
		Version:  Version,
		Scenario: sc.Name,
		Spec:     spec,
		Axes:     ax.Normalized(),
		Shards:   shards,
		Cells:    make([]Cell, 0, len(cells)),
	}
	for i, p := range cells {
		key, err := experiments.CellKey(sc, p)
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d: %w", i, err)
		}
		m.Cells = append(m.Cells, Cell{
			Index: i,
			Key:   key,
			Shard: shardOf(len(cells), shards, i),
		})
	}
	quoted := spec
	if quoted != "" {
		quoted = fmt.Sprintf(" -sweep '%s'", spec)
	}
	for i := 1; i <= shards; i++ {
		m.Verify = append(m.Verify,
			fmt.Sprintf("experiments -scenario %s%s -shard %d/%d -manifest <file>", sc.Name, quoted, i, shards))
	}
	m.Verify = append(m.Verify,
		fmt.Sprintf("experiments -scenario %s%s -merge -manifest <file> -format json", sc.Name, quoted))
	return m, nil
}

// Encode serializes the manifest. Field order is fixed by the struct
// definitions and all values are deterministic, so encoding the same
// manifest state always yields identical bytes.
func (m *Manifest) Encode() ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("shard: encode manifest: %w", err)
	}
	return experiments.AppendIndent(nil, data), nil
}

// Parse decodes and validates a manifest. It is strict: unknown fields,
// version skew, cell-list gaps, out-of-range or non-contiguous shard
// assignments, and done/result disagreements are all errors — a manifest
// that parses is structurally sound and covers its sweep exactly.
func Parse(data []byte) (*Manifest, error) {
	var probe struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("shard: manifest is not valid JSON: %w", err)
	}
	if probe.Version != Version {
		return nil, fmt.Errorf("shard: manifest version %q, want %q", probe.Version, Version)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("shard: decode manifest: %w", err)
	}
	if m.Scenario == "" {
		return nil, fmt.Errorf("shard: manifest has no scenario")
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest shard count %d < 1", m.Shards)
	}
	n := m.Axes.Size()
	if len(m.Cells) != n {
		return nil, fmt.Errorf("shard: manifest has %d cells, axes enumerate %d", len(m.Cells), n)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Index != i {
			return nil, fmt.Errorf("shard: cell %d has index %d (gap or reordering)", i, c.Index)
		}
		if c.Key == "" {
			return nil, fmt.Errorf("shard: cell %d has no key", i)
		}
		if want := shardOf(n, m.Shards, i); c.Shard != want {
			return nil, fmt.Errorf("shard: cell %d assigned to shard %d, contiguous split owns it to %d", i, c.Shard, want)
		}
		if c.Done && len(c.Result) == 0 {
			return nil, fmt.Errorf("shard: cell %d is done but has no result", i)
		}
		if !c.Done && len(c.Result) != 0 {
			return nil, fmt.Errorf("shard: cell %d has a result but is not done", i)
		}
		if c.Done && !json.Valid(c.Result) {
			return nil, fmt.Errorf("shard: cell %d result is not valid JSON", i)
		}
	}
	return m, nil
}

// Remaining returns the indices of cells of shard i (0-based) that have
// not completed. A negative i selects all shards.
func (m *Manifest) Remaining(i int) []int {
	var out []int
	for _, c := range m.Cells {
		if !c.Done && (i < 0 || c.Shard == i) {
			out = append(out, c.Index)
		}
	}
	return out
}

// DoneCount returns the number of completed cells.
func (m *Manifest) DoneCount() int {
	n := 0
	for _, c := range m.Cells {
		if c.Done {
			n++
		}
	}
	return n
}

// Summary renders one progress line: total, done, remaining, per-shard
// remaining counts.
func (m *Manifest) Summary() string {
	per := make([]int, m.Shards)
	for _, c := range m.Cells {
		if !c.Done {
			per[c.Shard]++
		}
	}
	parts := make([]string, m.Shards)
	for i, n := range per {
		parts[i] = strconv.Itoa(n)
	}
	return fmt.Sprintf("manifest %s: %d cells, %d done, %d remaining (per shard: %s)",
		m.Scenario, len(m.Cells), m.DoneCount(), len(m.Cells)-m.DoneCount(), strings.Join(parts, "/"))
}

// SameSweep is the one test of a manifest's identity: nil when m and o
// track the same sweep — the same scenario, shard count, and key and
// owning shard for every cell — else an error naming the first
// difference. Spec is not compared: two spellings of one sweep
// (reordered clauses, a shorthand flag for a clause) track the same cells.
func (m *Manifest) SameSweep(o *Manifest) error {
	if m.Scenario != o.Scenario {
		return fmt.Errorf("shard: manifest is for scenario %q, not %q", m.Scenario, o.Scenario)
	}
	if m.Shards != o.Shards || len(m.Cells) != len(o.Cells) {
		return fmt.Errorf("shard: manifest splits %d cells %d ways, not %d cells %d ways", len(m.Cells), m.Shards, len(o.Cells), o.Shards)
	}
	for i, c := range m.Cells {
		if c.Key != o.Cells[i].Key || c.Shard != o.Cells[i].Shard {
			return fmt.Errorf("shard: cell %d is %q on shard %d, not %q on shard %d", i, c.Key, c.Shard, o.Cells[i].Key, o.Cells[i].Shard)
		}
	}
	return nil
}

// checkScenario verifies the manifest matches sc: it must track the sweep
// its own axes enumerate under sc today. A key mismatch means the scenario
// registry or run semantics changed since the manifest was written, and
// resuming would mix incompatible results.
func (m *Manifest) checkScenario(sc scenario.Scenario) error {
	now, err := New(sc, m.Spec, m.Axes, m.Shards)
	if err != nil {
		return err
	}
	return m.SameSweep(now)
}

// RunShard executes the remaining cells of shard i (0-based) on the
// experiments worker pool and stores their serialized results in the
// manifest. Already-done cells are skipped, so an interrupted shard can
// be re-run to completion from its persisted manifest. The shard's cells
// share one memo of their inputs (scenario.Inputs).
func (m *Manifest) RunShard(sc scenario.Scenario, i int) error {
	in := scenario.NewInputs(sc)
	return m.RunShardWith(sc, i, func(_ scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
		return in.Run(p)
	})
}

// RunShardWith is RunShard with a custom per-cell runner, the same seam
// as experiments.RunSweepWith: a caller that runs its sweeps through a
// runner hands the same one to its shards. The runner's cell index counts
// within the shard's remaining cells.
func (m *Manifest) RunShardWith(sc scenario.Scenario, i int, run experiments.CellRunner) error {
	if i < 0 || i >= m.Shards {
		return fmt.Errorf("shard: shard %d out of range [0, %d)", i, m.Shards)
	}
	if err := m.checkScenario(sc); err != nil {
		return err
	}
	todo := m.Remaining(i)
	if len(todo) == 0 {
		return nil
	}
	all := m.Axes.Cells()
	params := make([]scenario.Params, len(todo))
	for k, idx := range todo {
		params[k] = all[idx]
	}
	results, err := experiments.RunCells(sc, params, run)
	if err != nil {
		return err
	}
	for k, idx := range todo {
		raw, err := json.Marshal(results[k])
		if err != nil {
			return fmt.Errorf("shard: serialize cell %d result: %w", idx, err)
		}
		m.Cells[idx].Result = raw
		m.Cells[idx].Done = true
	}
	return nil
}

// Merge assembles the completed manifest into the sweep report an
// unsharded run would produce. Every cell must be done; the stored
// results are fed through the same RunSweepWith assembly path as a live
// sweep (identical row order, speedup groups and encoders), and each
// result's own normalized parameters are checked against the cell key it
// claims to satisfy, so a manifest cannot silently serve the wrong run.
func (m *Manifest) Merge(sc scenario.Scenario) (*experiments.SweepReport, error) {
	if err := m.checkScenario(sc); err != nil {
		return nil, err
	}
	if rem := m.Remaining(-1); len(rem) > 0 {
		return nil, fmt.Errorf("shard: %d cells not done (first missing: %d); %s", len(rem), rem[0], m.Summary())
	}
	decoded := make([]*scenario.Result, len(m.Cells))
	for i, c := range m.Cells {
		res := &scenario.Result{}
		if err := json.Unmarshal(c.Result, res); err != nil {
			return nil, fmt.Errorf("shard: decode cell %d result: %w", i, err)
		}
		key, err := experiments.CellKey(sc, res.Params)
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d stored result: %w", i, err)
		}
		if key != c.Key {
			return nil, fmt.Errorf("shard: cell %d stored result is for %q, cell is %q", i, key, c.Key)
		}
		decoded[i] = res
	}
	return experiments.RunSweepWith(sc, m.Axes, func(_ scenario.Scenario, i int, _ scenario.Params) (*scenario.Result, error) {
		return decoded[i], nil
	})
}

// Combine folds several copies of one manifest — typically one per
// shard worker, each having completed its own cells — into a single
// manifest holding every completed cell, with the first copy's Spec and
// Axes. All copies must track the same sweep (SameSweep), however each
// spelled it, and two copies that both completed a cell must have stored
// byte-identical results; any disagreement is an error, never a silent
// pick.
func Combine(ms ...*Manifest) (*Manifest, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("shard: Combine of no manifests")
	}
	base := ms[0]
	out := &Manifest{
		Version:  base.Version,
		Scenario: base.Scenario,
		Spec:     base.Spec,
		Axes:     base.Axes,
		Shards:   base.Shards,
		Verify:   append([]string(nil), base.Verify...),
		Cells:    append([]Cell(nil), base.Cells...),
	}
	for k, m := range ms[1:] {
		if err := m.SameSweep(base); err != nil {
			return nil, fmt.Errorf("%w (manifest %d against manifest 0)", err, k+1)
		}
		for i, c := range m.Cells {
			if !c.Done {
				continue
			}
			if out.Cells[i].Done {
				if !bytes.Equal(out.Cells[i].Result, c.Result) {
					return nil, fmt.Errorf("shard: manifests disagree on cell %d result", i)
				}
				continue
			}
			out.Cells[i] = c
		}
	}
	return out, nil
}

// ParseShardSpec parses a -shard flag value "i/n" (1-based shard i of
// n) into the 0-based shard index and the shard count.
func ParseShardSpec(spec string) (index, shards int, err error) {
	a, b, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard: -shard value %q is not i/n", spec)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(a))
	n, err2 := strconv.Atoi(strings.TrimSpace(b))
	if err1 != nil || err2 != nil || n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("shard: -shard value %q wants 1 <= i <= n", spec)
	}
	return i - 1, n, nil
}
