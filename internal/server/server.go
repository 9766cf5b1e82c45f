package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// Config parameterizes a daemon instance. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// Workers is the number of jobs executed concurrently (each job
	// additionally fans its cells out on the experiments worker pool).
	// Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO of queued jobs; submits beyond it are
	// rejected with 503 queue_full. Default: 256.
	QueueDepth int
	// CacheCells bounds the completed-cell LRU; <= 0 disables caching.
	// Default (when 0): 4096. Set negative to disable explicitly.
	CacheCells int
	// MaxCells caps one job's sweep size. Default: 4096.
	MaxCells int
	// AuthToken, when non-empty, protects every /v1/ endpoint with
	// "Authorization: Bearer <token>" (health and readiness stay open).
	AuthToken string
	// StateDir, when non-empty, persists the daemon's completed-cell
	// cache and accepted job specs to disk (see persist.go): a restarted
	// daemon reloads the cache, re-queues the jobs a shutdown
	// interrupted under their original IDs, and recomputes only the
	// cells that never finished. Default: no persistence.
	StateDir string
	// Now is the clock; tests inject a fixed one so job documents are
	// byte-stable. Default: time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheCells == 0 {
		c.CacheCells = 4096
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Usage is one client's accumulated counters, the per-client half of the
// management surface.
type Usage struct {
	Client    string `json:"client"`
	Submitted int    `json:"submitted"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	CellsRun  int    `json:"cells_run"`
	CacheHits int    `json:"cache_hits"`
}

// Server is the daemon: an http.Handler plus the job queue, worker pool
// and cell cache behind it. Create with New, serve Handler(), stop with
// Drain + Wait.
type Server struct {
	cfg   Config
	cache *cellCache
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submit order
	usage    map[string]*Usage
	nextID   int
	queued   chan *Job
	draining bool

	persist    PersistStats
	restoreErr error

	workers sync.WaitGroup
}

// New builds a Server and starts its job workers. With Config.StateDir
// set, persisted state is restored first: cached cells reload and
// interrupted jobs re-queue under their original IDs; a corrupt state
// directory is reported by RestoreError (the server still starts, with
// whatever restored cleanly up to the failure).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  newCellCache(cfg.CacheCells, cfg.StateDir),
		jobs:   make(map[string]*Job),
		usage:  make(map[string]*Usage),
		queued: make(chan *Job, cfg.QueueDepth),
	}
	s.mux = http.NewServeMux()
	s.routes()
	if cfg.StateDir != "" {
		s.persist.Dir = cfg.StateDir
		s.restoreErr = s.restore()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// RestoreError reports what, if anything, went wrong restoring the state
// directory. Callers that need a hard guarantee (cmd/ic2mpid refuses to
// start on a corrupt state dir) check it right after New.
func (s *Server) RestoreError() error { return s.restoreErr }

// Handler returns the daemon's HTTP surface, auth middleware included.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AuthToken != "" && strings.HasPrefix(r.URL.Path, "/v1/") {
			if r.Header.Get("Authorization") != "Bearer "+s.cfg.AuthToken {
				writeError(w, http.StatusUnauthorized, "unauthorized", "missing or wrong bearer token")
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Drain stops intake: readiness and submits flip to 503, still-queued
// jobs are cancelled, and the queue closes so workers exit after their
// running jobs finish. Idempotent. Pair with Wait for the full SIGTERM
// shutdown sequence.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateQueued {
			s.finalizeLocked(j, StateCancelled, reasonDraining)
		}
	}
	close(s.queued)
}

// Shutdown finalization reasons. finalizeLocked keeps the persisted job
// record for exactly these (shutdownReason), so a restart re-queues the
// jobs the shutdown interrupted.
const (
	reasonDraining     = "daemon draining"
	drainTimeoutPrefix = "drain timeout: "
)

// Wait blocks until every worker has finished its running job, or ctx
// expires — in which case still-running jobs are marked failed so their
// state is never ambiguous to late pollers, and the error reports how
// many were abandoned.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		abandoned := 0
		for _, id := range s.order {
			if j := s.jobs[id]; j.State == StateRunning {
				s.finalizeLocked(j, StateFailed, drainTimeoutPrefix+"daemon exited before the job finished")
				abandoned++
			}
		}
		s.mu.Unlock()
		return fmt.Errorf("drain timed out with %d job(s) still running", abandoned)
	}
}

// Close drains and waits without a deadline — the test teardown path.
func (s *Server) Close() {
	s.Drain()
	s.workers.Wait()
}

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/usage", s.handleUsage)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// ---- encoding helpers ----

// writeJSON renders v indented — job documents double as human-readable
// curl output and as byte-stable golden fixtures.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the structured error body of every non-2xx response.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// ---- handlers ----

const maxBodyBytes = 1 << 20

func clientOf(r *http.Request) string {
	if c := strings.TrimSpace(r.Header.Get("X-Client")); c != "" {
		return c
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "job spec exceeds %d bytes", maxBodyBytes)
		return
	}
	spec, sc, err := DecodeJobSpec(body, s.cfg.MaxCells)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	client := clientOf(r)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining", "daemon is draining; not accepting jobs")
		return
	}
	if len(s.queued) == cap(s.queued) {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "queue_full", "job queue is full (%d queued)", cap(s.queued))
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), client, spec, sc, s.cfg.Now())
	if s.cfg.StateDir != "" {
		// Persist before the job becomes visible: once accepted, a job
		// survives a daemon restart, so a spec that cannot be persisted
		// is not accepted.
		if err := s.persistJobLocked(j); err != nil {
			s.nextID--
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "persist_failed", "writing job record: %v", err)
			return
		}
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.usageOf(client).Submitted++
	s.queued <- j // cannot block: capacity checked under the same mutex
	v := j.view()
	s.mu.Unlock()

	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	if filter != "" && !slices.Contains(states, filter) {
		// An empty list must mean "no job in that state", not "no such state".
		writeError(w, http.StatusBadRequest, "bad_request", "unknown state %q (known: %s)", filter, strings.Join(states, ", "))
		return
	}
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if filter == "" || j.State == filter {
			views = append(views, j.view())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

// jobFor resolves {id} or writes a 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	v := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch j.State {
	case StateQueued:
		s.finalizeLocked(j, StateCancelled, "cancelled by client")
	case StateRunning:
		// The runner observes the flag at the next cell boundary;
		// simulation cells are not interruptible mid-run.
		j.cancel.Store(true)
	default:
		state := j.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "already_final", "job %s is already %s", j.ID, state)
		return
	}
	v := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, result, hits := j.State, j.result, j.CacheHits
	format := j.Spec.Format
	errMsg := j.Err
	s.mu.Unlock()
	if state != StateDone {
		if errMsg != "" {
			writeError(w, http.StatusConflict, "not_done", "job %s is %s: %s", j.ID, state, errMsg)
		} else {
			writeError(w, http.StatusConflict, "not_done", "job %s is %s", j.ID, state)
		}
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("X-Cache-Hits", strconv.Itoa(hits))
	w.Write(result)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, traced, lines := j.State, j.Spec.Trace, j.traceJSONL
	s.mu.Unlock()
	if !traced {
		writeError(w, http.StatusConflict, "not_traced", "job %s was not submitted with trace=true", j.ID)
		return
	}
	if state != StateDone {
		writeError(w, http.StatusConflict, "not_done", "job %s is %s", j.ID, state)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(lines)
}

// handleStream serves the live event feed: NDJSON by default, SSE when
// the client asks for text/event-stream. The stream replays from the
// beginning (determinism makes the replay exact) and follows the job
// until its final state line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		lines, closed, wait := j.stream.snapshot(next)
		for _, ln := range lines {
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ln.kind, ln.data)
			} else {
				w.Write(ln.data)
				io.WriteString(w, "\n")
			}
		}
		next += len(lines)
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if closed && len(lines) == 0 {
			return
		}
		if !closed {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	list := scenario.List()
	out := make([]entry, 0, len(list))
	for _, sc := range list {
		out = append(out, entry{sc.Name, sc.Description})
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []entry `json:"scenarios"`
	}{out})
}

func (s *Server) handleUsage(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	clients := make([]Usage, 0, len(s.usage))
	for _, u := range s.usage {
		clients = append(clients, *u)
	}
	s.mu.Unlock()
	sort.Slice(clients, func(i, k int) bool { return clients[i].Client < clients[k].Client })
	writeJSON(w, http.StatusOK, struct {
		Clients []Usage `json:"clients"`
	}{clients})
}

// Stats is the GET /v1/stats document. Persist is present only when the
// daemon runs with a state directory.
type Stats struct {
	Jobs     map[string]int `json:"jobs"`
	Queued   int            `json:"queue_depth"`
	Workers  int            `json:"workers"`
	Draining bool           `json:"draining"`
	Cache    CacheStats     `json:"cache"`
	Persist  *PersistStats  `json:"persist,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := Stats{
		Jobs:     make(map[string]int, len(states)),
		Queued:   len(s.queued),
		Workers:  s.cfg.Workers,
		Draining: s.draining,
	}
	for _, state := range states {
		st.Jobs[state] = 0 // every state is listed, also at zero
	}
	for _, j := range s.jobs {
		st.Jobs[j.State]++
	}
	if s.cfg.StateDir != "" {
		p := s.persist
		st.Persist = &p
	}
	s.mu.Unlock()
	st.Cache = s.cache.stats()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ready"})
}

// ---- job execution ----

// usageOf returns (creating if needed) a client's counters. Callers hold
// the mutex.
func (s *Server) usageOf(client string) *Usage {
	u := s.usage[client]
	if u == nil {
		u = &Usage{Client: client}
		s.usage[client] = u
	}
	return u
}

// finalizeLocked moves j to a terminal state, updates usage, and closes
// the stream after a final "state" line. A job abandoned by a shutdown
// keeps its persisted spec record (so a restart re-runs it); any other
// terminal state removes it. Finalizing an already-final job is a no-op
// — the abandoned run of a drain-timeout job may still report in long
// after the job was marked failed. Callers hold the mutex.
func (s *Server) finalizeLocked(j *Job, state, errMsg string) {
	if final(j.State) {
		return
	}
	if s.cfg.StateDir != "" && !shutdownReason(state, errMsg) {
		s.removeJobRecordLocked(j)
	}
	j.State = state
	j.Err = errMsg
	j.FinishedAt = s.cfg.Now()
	u := s.usageOf(j.Client)
	switch state {
	case StateDone:
		u.Completed++
	case StateFailed:
		u.Failed++
	case StateCancelled:
		u.Cancelled++
	}
	u.CellsRun += j.CellsDone
	u.CacheHits += j.CacheHits
	j.stream.appendJSON("state", stateEvent{Kind: "state", ID: j.ID, State: state, Error: errMsg})
	j.stream.close()
}

// stateEvent is the streamed job-lifecycle record.
type stateEvent struct {
	Kind  string `json:"kind"`
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// testCellGate, when non-nil, is called before every cell runs — the
// conformance suite's hook for making "cancel mid-run" deterministic.
// Set only from tests, before any job is submitted.
var testCellGate func(j *Job, cell int)

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queued {
		s.mu.Lock()
		if j.State != StateQueued { // cancelled while waiting
			s.mu.Unlock()
			continue
		}
		j.State = StateRunning
		j.StartedAt = s.cfg.Now()
		s.mu.Unlock()
		j.stream.appendJSON("state", stateEvent{Kind: "state", ID: j.ID, State: StateRunning})
		s.run(j)
	}
}

// run executes one job to its terminal state.
func (s *Server) run(j *Job) {
	rep, traceBytes, err := s.execute(j)
	if err != nil {
		s.mu.Lock()
		if err == errCancelled {
			s.finalizeLocked(j, StateCancelled, "cancelled by client")
		} else {
			s.finalizeLocked(j, StateFailed, err.Error())
		}
		s.mu.Unlock()
		return
	}
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, j.Spec.Format, rep); err != nil {
		s.mu.Lock()
		s.finalizeLocked(j, StateFailed, err.Error())
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	j.result = buf.Bytes()
	j.traceJSONL = traceBytes
	s.finalizeLocked(j, StateDone, "")
	s.mu.Unlock()
}

// execute runs the job's sweep (through the cell cache) or its traced
// single cell (bypassing the cache: a cached result has no trace).
func (s *Server) execute(j *Job) (*experiments.SweepReport, []byte, error) {
	if j.Spec.Trace {
		p, err := j.Spec.Axes.Single()
		if err != nil {
			return nil, nil, err
		}
		np, err := j.sc.Normalize(p)
		if err != nil {
			return nil, nil, err
		}
		if testCellGate != nil {
			testCellGate(j, 0)
		}
		if j.cancel.Load() {
			return nil, nil, errCancelled
		}
		rec := &trace.Recorder{}
		sink := newTraceSink(j.stream, np.Procs, np.Iterations)
		rec.SetSink(sink)
		p.Trace = rec
		res, err := j.sc.Run(p)
		if err != nil {
			return nil, nil, err
		}
		sink.finish()
		s.mu.Lock()
		j.CellsDone = 1
		s.mu.Unlock()
		var tbuf bytes.Buffer
		if err := trace.WriteJSONL(&tbuf, rec); err != nil {
			return nil, nil, err
		}
		return experiments.NewSweepReport(j.sc, res), tbuf.Bytes(), nil
	}

	tracker := newCellTracker(j.stream, j.Cells)
	rep, err := experiments.RunSweepWith(j.sc, j.Spec.Axes, func(sc scenario.Scenario, i int, p scenario.Params) (*scenario.Result, error) {
		if testCellGate != nil {
			testCellGate(j, i)
		}
		if j.cancel.Load() {
			return nil, errCancelled
		}
		key, err := experiments.CellKey(sc, p)
		if err != nil {
			return nil, err
		}
		res, hit := s.cache.get(key)
		if !hit {
			if res, err = sc.Run(p); err != nil {
				return nil, err
			}
			s.cache.put(key, res)
		}
		s.mu.Lock()
		j.CellsDone++
		if hit {
			j.CacheHits++
		}
		s.mu.Unlock()
		tracker.cellDone(i, cellEvent{Kind: "cell", Index: i, Of: j.Cells, Cached: hit, ElapsedS: res.Elapsed})
		return res, nil
	})
	return rep, nil, err
}
