package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
)

// Job states. A job is final in StateDone, StateFailed or StateCancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// states lists every job state, in lifecycle order.
var states = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// JobSpec is the submit-request body: a scenario name plus the sweep
// space, in exactly the shape cmd/experiments accepts — either an
// experiments.Axes document or the CLI's "procs=1,2;network=..." sweep
// string (one or the other, not both).
type JobSpec struct {
	// Scenario is the registered scenario to sweep (see GET /v1/scenarios).
	Scenario string `json:"scenario"`
	// Axes is the cartesian sweep space; empty axes stay at the scenario's
	// default, exactly as in experiments.Axes.
	Axes experiments.Axes `json:"axes"`
	// Sweep is the cmd/experiments -sweep string form of Axes; set at most
	// one of the two.
	Sweep string `json:"sweep,omitempty"`
	// Format selects the result encoding: "json" (default), "csv" or
	// "text" — the experiments.WriteReport formats.
	Format string `json:"format,omitempty"`
	// Trace requests a per-iteration trace: the job runs the axes'
	// one-cell sweep (Axes.One), streams its canonical trace lines live,
	// and serves those lines from /v1/jobs/{id}/trace afterwards.
	Trace bool `json:"trace,omitempty"`
}

// maxProcs caps the simulated processors of one cell: the largest size any
// doc names, about 400 MB of rank state at the measured ~6 KiB per rank,
// allocated before the first iteration, where no stop reaches.
const maxProcs = 1 << 16

// maxTraceSamples caps a traced cell's processors x iterations: its
// recorder allocates a 104-byte sample for each up front, ~440 MB at most.
const maxTraceSamples = 1 << 22

// DecodeJobSpec parses and validates a submit-request body: strict JSON
// (unknown fields rejected), a registered scenario, a well-formed sweep
// space with a one-cell sweep when a trace is requested, and the cells the
// job will run (JobSpec.cells): at most maxCells of them, each normalizable,
// of at most maxProcs processors and, traced, maxTraceSamples samples. It
// returns the spec with Format defaulted and the resolved scenario; any
// error is safe to echo to the client. This is the daemon's input boundary
// — FuzzJobSpec pins that it never panics.
func DecodeJobSpec(body []byte, maxCells int) (JobSpec, scenario.Scenario, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, scenario.Scenario{}, fmt.Errorf("invalid job JSON: %w", err)
	}
	if dec.More() {
		return spec, scenario.Scenario{}, errors.New("invalid job JSON: trailing data after the job object")
	}
	if spec.Scenario == "" {
		return spec, scenario.Scenario{}, errors.New(`job spec is missing "scenario"`)
	}
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		return spec, scenario.Scenario{}, err
	}
	if spec.Sweep != "" {
		if !spec.Axes.Empty() {
			return spec, scenario.Scenario{}, errors.New(`set "axes" or "sweep", not both`)
		}
		if spec.Axes, err = experiments.ParseAxes(spec.Sweep); err != nil {
			return spec, scenario.Scenario{}, err
		}
	}
	switch spec.Format {
	case "":
		spec.Format = "json"
	case "json", "csv", "text":
	default:
		return spec, scenario.Scenario{}, fmt.Errorf("unknown format %q (known: json, csv, text)", spec.Format)
	}
	ax, err := spec.cells()
	if err != nil { // only a traced spec has no one-cell sweep
		return spec, scenario.Scenario{}, fmt.Errorf("trace jobs need a single-cell sweep: %w", err)
	}
	if n := ax.Size(); n > maxCells {
		return spec, scenario.Scenario{}, fmt.Errorf("sweep has %d cells, daemon cap is %d", n, maxCells)
	}
	for _, procs := range ax.Procs {
		if procs > maxProcs {
			return spec, scenario.Scenario{}, fmt.Errorf("procs=%d exceeds the daemon cap of %d processors per cell", procs, maxProcs)
		}
	}
	// Normalizing every cell the job will run validates the axis values
	// (partitioner, exchange, balancer, network, perturb spec, kernel,
	// bounds) without running anything.
	for _, p := range ax.Cells() {
		np, err := sc.Normalize(p)
		if err != nil {
			return spec, scenario.Scenario{}, err
		}
		if spec.Trace && np.Iterations > maxTraceSamples/np.Procs {
			return spec, scenario.Scenario{}, fmt.Errorf("traced procs=%d x iters=%d exceeds the daemon cap of %d trace samples per cell", np.Procs, np.Iterations, maxTraceSamples)
		}
	}
	return spec, sc, nil
}

// cells returns the sweep the job runs: its axes, or a traced job's
// one-cell sweep (Axes.One).
func (spec JobSpec) cells() (experiments.Axes, error) {
	if spec.Trace {
		return spec.Axes.One()
	}
	return spec.Axes, nil
}

// Job is one submitted unit of work. Identity fields are immutable after
// submit; mutable progress fields are guarded by the server mutex. A
// cancel or a drain deadline closes stop, which the runner reads before
// each cell and every rank at each iteration boundary (Params.Stop).
type Job struct {
	ID     string
	Client string
	Spec   JobSpec
	sc     scenario.Scenario
	axes   experiments.Axes // the sweep the job runs (JobSpec.cells)
	stream *stream
	stop   chan struct{} // closed by stopLocked

	// Guarded by Server.mu.
	State      string
	Err        string
	Cells      int
	CellsDone  int
	CacheHits  int
	QueuedAt   time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	result     []byte
	stopReason string // why stop was closed; "" while it is open
}

// newJob builds a queued job from a spec DecodeJobSpec accepted.
func newJob(id, client string, spec JobSpec, sc scenario.Scenario, queuedAt time.Time) *Job {
	ax, _ := spec.cells() // DecodeJobSpec refused every spec that has none
	return &Job{
		ID:       id,
		Client:   client,
		Spec:     spec,
		sc:       sc,
		axes:     ax,
		stream:   newStream(),
		stop:     make(chan struct{}),
		State:    StateQueued,
		Cells:    ax.Size(),
		QueuedAt: queuedAt,
	}
}

// stopLocked closes j's stop channel once; the job ends cancelled with
// reason. Callers hold the server mutex.
func (j *Job) stopLocked(reason string) {
	if j.stopReason == "" {
		j.stopReason = reason
		close(j.stop)
	}
}

// jobView is the stable serialized form of a Job. Host-time durations are
// omitted when zero so fixed-clock conformance goldens stay byte-stable
// while the live daemon still reports real queue/run latency.
type jobView struct {
	ID         string           `json:"id"`
	Client     string           `json:"client"`
	State      string           `json:"state"`
	Scenario   string           `json:"scenario"`
	Axes       experiments.Axes `json:"axes"`
	Format     string           `json:"format"`
	Trace      bool             `json:"trace,omitempty"`
	Cells      int              `json:"cells"`
	CellsDone  int              `json:"cells_done"`
	CacheHits  int              `json:"cache_hits"`
	Error      string           `json:"error,omitempty"`
	QueuedAt   string           `json:"queued_at"`
	StartedAt  string           `json:"started_at,omitempty"`
	FinishedAt string           `json:"finished_at,omitempty"`
	QueueNS    int64            `json:"queue_ns,omitempty"`
	RunNS      int64            `json:"run_ns,omitempty"`
}

// view renders the job document. Callers hold the server mutex.
func (j *Job) view() jobView {
	v := jobView{
		ID:        j.ID,
		Client:    j.Client,
		State:     j.State,
		Scenario:  j.Spec.Scenario,
		Axes:      j.Spec.Axes,
		Format:    j.Spec.Format,
		Trace:     j.Spec.Trace,
		Cells:     j.Cells,
		CellsDone: j.CellsDone,
		CacheHits: j.CacheHits,
		Error:     j.Err,
		QueuedAt:  stamp(j.QueuedAt),
	}
	if !j.StartedAt.IsZero() {
		v.StartedAt = stamp(j.StartedAt)
		v.QueueNS = j.StartedAt.Sub(j.QueuedAt).Nanoseconds()
	}
	if !j.FinishedAt.IsZero() {
		v.FinishedAt = stamp(j.FinishedAt)
		if !j.StartedAt.IsZero() {
			v.RunNS = j.FinishedAt.Sub(j.StartedAt).Nanoseconds()
		}
	}
	return v
}

// stamp renders a timestamp in RFC3339 with nanoseconds, UTC.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
