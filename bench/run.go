package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation of one workload, the unit the contract in
// BENCHMARK.json describes: --workload --seed --seconds --trace.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	smoke    bool
	nproc    int
	log      io.Writer
	// layers, when set, carries the workload-independent layer metrics from
	// one traced run to the next (the smoke path measures them once).
	layers *layerCache
}

// metric is one reported number. Null carries the reason a metric is
// withheld (the single-core omission rule); such a metric has no value.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Null  string
}

// metricJSON is a metric on the wire: a withheld value is null.
type metricJSON struct {
	Name  string   `json:"name,omitempty"`
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Null  string   `json:"null_reason,omitempty"`
}

func (m metric) wire() metricJSON {
	w := metricJSON{Name: m.Name, Unit: m.Unit, N: m.N, Null: m.Null}
	if m.Null == "" && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
		w.Value = &m.Value
	}
	return w
}

func (m metric) MarshalJSON() ([]byte, error) { return json.Marshal(m.wire()) }

func (m *metric) UnmarshalJSON(data []byte) error {
	var w metricJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = metric{Name: w.Name, Value: math.NaN(), Unit: w.Unit, N: w.N, Null: w.Null}
	if w.Value != nil {
		m.Value = *w.Value
	}
	return nil
}

// runResult is what one run reports; lastLine renders the contract's form.
type runResult struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// HostSpeed is what the end-to-end times were scaled by (untraced runs).
	HostSpeed float64  `json:"host_speed,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// lastLine is the one JSON object the contract asks for: correct, attempted,
// failed, and each metric's value and unit under its name.
func (r *runResult) lastLine() string {
	values := map[string]metricJSON{}
	for _, m := range r.Metrics {
		w := m.wire()
		values[m.Name] = metricJSON{Value: w.Value, Unit: w.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, values})
	if err != nil {
		panic(err) // plain data
	}
	return string(b)
}

func recordPath(out, workload string, trace bool) string {
	kind := "untraced"
	if trace {
		kind = "traced"
	}
	return filepath.Join(out, "run-"+workload+"-"+kind+".json")
}

// writeRecord leaves the run's metrics, with their sample counts, in the
// output directory.
func (r *runResult) writeRecord(out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(out, r.Workload, r.Trace), append(data, '\n'), 0o644)
}

func (r *runResult) print(w io.Writer) {
	for _, m := range r.Metrics {
		if m.Null != "" {
			fmt.Fprintf(w, "%-15s %-40s %14s %-8s n=%d (%s)\n", r.Workload, m.Name, "null", m.Unit, m.N, m.Null)
			continue
		}
		fmt.Fprintf(w, "%-15s %-40s %14.6g %-8s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
}

// tally accumulates rounds into a run's totals.
type tally struct {
	rounds     []roundStats
	ops, fails int
	err        error
}

func (t *tally) add(st roundStats) {
	t.rounds = append(t.rounds, st)
	t.ops += st.ops
	t.fails += st.failed
	if t.err == nil {
		t.err = st.err
	}
}

func (t *tally) wall() (d time.Duration) {
	for _, st := range t.rounds {
		d += st.wall
	}
	return d
}

// rates is each round's ops/wall.
func (t *tally) rates() (xs []float64) {
	for _, st := range t.rounds {
		xs = append(xs, float64(st.ops)/st.wall.Seconds())
	}
	return xs
}

// runOne runs one workload once: set-up, then either the untraced timed run
// (end-to-end metrics) or the traced run and the layer probes (per-layer
// metrics).
func runOne(cfg runConfig) (*runResult, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	pinned, err := loadDigests()
	if err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, nproc: cfg.nproc, smoke: cfg.smoke, book: &digestBook{pinned: pinned}}
	res := &runResult{Workload: w.name, Trace: cfg.trace}

	// Set-up is repeated so that setup_s is a median, not one sample. A
	// calibration sample follows every set-up and every round (calib.go).
	setups := 5
	if cfg.trace || cfg.smoke {
		setups = 1
	}
	var inst instance
	var setupS, cal []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cal = append(cal, calibrate(cfg.nproc))
	}
	if cfg.trace {
		if err := runTraced(cfg, e, w, inst, res); err != nil {
			return nil, err
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	var t tally
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 1; n <= 1 || (!cfg.smoke && (n <= 3 || time.Now().Before(deadline))); n++ {
		t.add(inst.round(n))
		cal = append(cal, calibrate(cfg.nproc))
	}
	res.Attempted, res.Failed = t.ops, t.fails
	if t.err != nil {
		fmt.Fprintf(cfg.log, "# %s: first failure: %v\n", w.name, t.err)
	}
	// Each round gives one throughput, one median latency and one CPU cost.
	// Across rounds the quartile on the fast side is reported: interference
	// from the host only ever adds time. Then all are scaled to the
	// reference host speed.
	var p50, cpuPerOp []float64
	for _, st := range t.rounds {
		p50 = append(p50, median(st.lat))
		cpuPerOp = append(cpuPerOp, ms(st.cpu)/float64(st.ops))
	}
	speed, rounds := hostSpeed(cal), len(t.rounds)
	res.HostSpeed = speed
	raw := []metric{
		{Name: "ops_per_s", Value: percentile(t.rates(), 0.75), Unit: "1/s", N: rounds},
		{Name: "op_p50_ms", Value: percentile(p50, 0.25), Unit: "ms", N: rounds},
		{Name: "cpu_ms_per_op", Value: percentile(cpuPerOp, 0.25), Unit: "ms", N: rounds},
		{Name: "setup_s", Value: median(setupS), Unit: "s", N: len(setupS)},
	}
	fmt.Fprintf(cfg.log, "# %s: host speed %.3f of the reference (%d calibration samples); as measured, before scaling:", w.name, speed, len(cal))
	for _, m := range raw {
		fmt.Fprintf(cfg.log, " %s %.6g %s,", m.Name, m.Value, m.Unit)
		if m.Name == "ops_per_s" {
			m.Value /= speed
		} else {
			m.Value *= speed
		}
		res.Metrics = append(res.Metrics, m)
	}
	fmt.Fprintf(cfg.log, " over %d %ss\n", t.ops, w.op)
	res.Metrics = append(res.Metrics, metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", N: 1})
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced fills res with the per-layer metrics: the workload's own traced
// rounds (span budget, tracing overhead, simulator counters) and the layer
// probes, which are the same whichever workload was asked for.
func runTraced(cfg runConfig, e *env, w workloadDef, inst instance, res *runResult) error {
	// Untraced and traced rounds alternate, one cell or job at a time in
	// both, so the difference between them is the cost of tracing alone.
	share := time.Duration(cfg.seconds * float64(time.Second) / 3)
	rec := newRecorder()
	var plain, traced tally
	start := time.Now()
	for n := 1; n <= 1 || (!cfg.smoke && time.Since(start) < share); n++ {
		plain.add(inst.serial(n))
		traced.add(inst.traced(rec, n))
	}
	res.Attempted, res.Failed = plain.ops+traced.ops, plain.fails+traced.fails
	for _, err := range []error{plain.err, traced.err} {
		if err != nil {
			fmt.Fprintf(cfg.log, "# %s: first failure: %v\n", w.name, err)
		}
	}

	rows, rootWall := rec.budget()
	printBudget(cfg.log, w.name, rows, rootWall, traced.wall())
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := rec.flush(filepath.Join(cfg.out, "trace-"+w.name+".json"), w.name); err != nil {
		return err
	}

	layers := cfg.layers
	if layers == nil {
		layers = &layerCache{}
	}
	if layers.metrics == nil {
		var err error
		if layers.metrics, layers.failed, err = layerProbes(cfg, e); err != nil {
			return err
		}
	}
	res.Failed += layers.failed

	one := traced.rounds[0]
	replica := rec.total("bench.replica")
	n := len(traced.rounds)
	res.Metrics = append([]metric{
		{Name: "bench.trace_overhead_pct", Value: 100 * (float64(traced.wall()-replica)/float64(plain.wall()) - 1), Unit: "%", N: n},
		{Name: "bench.budget_sum_pct", Value: 100 * float64(rootWall) / float64(traced.wall()), Unit: "%", N: n},
		{Name: "bench.traced_wall_ms", Value: ms(traced.wall()) / float64(n), Unit: "ms", N: n},
		{Name: "platform.msgs", Value: float64(one.msgs), Unit: "count", N: 1},
		{Name: "platform.bytes", Value: float64(one.bytes), Unit: "count", N: 1},
		{Name: "platform.virtual_s", Value: one.virtualS, Unit: "s", N: 1},
	}, layers.metrics...)
	omitOnSingleCore(res.Metrics, cfg.nproc)
	return nil
}

// omitOnSingleCore withholds the two parallel-scaling metrics on a host with
// fewer than two processors: there they would measure time slicing, not
// scaling, and a number in the record would be believed.
func omitOnSingleCore(ms []metric, nproc int) {
	if nproc >= 2 {
		return
	}
	for i := range ms {
		if ms[i].Name == "experiments.parallel_efficiency" || ms[i].Name == "mpi.pevent_scaling_2w" {
			ms[i].Value, ms[i].Null = math.NaN(), "single-core host"
		}
	}
}
