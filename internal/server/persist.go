package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
)

// Daemon state persistence. With Config.StateDir set, the daemon
// survives a restart without losing work:
//
//   - every completed sweep cell is written to <dir>/cells/<sha256(key)>.json
//     as it finishes, and reloaded into the LRU on startup — a restarted
//     daemon serves previously-computed cells from cache, byte-identical
//     to a fresh run;
//   - every accepted job spec is written to <dir>/jobs/<id>.json on
//     submit, removed when the job reaches a terminal state through
//     normal operation, and kept when the daemon shuts down underneath
//     it (cancelled by a drain, queued or stopped at the deadline) — on
//     restart those jobs are re-queued under their original IDs, and
//     their already-completed cells come from the persisted cache, so
//     only the remaining cells recompute.
//
// Both stores hold plain JSON files, one record per file, written through
// experiments.WriteFileAtomic so a crash never leaves a torn record.

const (
	cellsDirName = "cells"
	jobsDirName  = "jobs"
)

// persistedCell is the on-disk form of one completed sweep cell.
type persistedCell struct {
	Key    string           `json:"key"`
	Result *scenario.Result `json:"result"`
}

// persistedJob is the on-disk form of one accepted job spec. Spec.Sweep
// is cleared before writing (Axes is authoritative after decoding), so
// the record re-validates through DecodeJobSpec on restore.
type persistedJob struct {
	ID       string    `json:"id"`
	Client   string    `json:"client"`
	QueuedAt time.Time `json:"queued_at"`
	Spec     JobSpec   `json:"spec"`
}

// PersistStats is the persistence section of GET /v1/stats, present only
// when the daemon runs with a state directory.
type PersistStats struct {
	Dir          string `json:"dir"`
	CellsLoaded  int    `json:"cells_loaded"`
	JobsRestored int    `json:"jobs_restored"`
}

// cellPath returns the content-addressed file of one cell key.
func cellPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, cellsDirName, hex.EncodeToString(sum[:])+".json")
}

// persistCell writes one completed cell; errors are returned for the
// caller to surface (the in-memory cache entry stands either way).
func persistCell(dir, key string, res *scenario.Result) error {
	data, err := json.Marshal(persistedCell{Key: key, Result: res})
	if err != nil {
		return err
	}
	return experiments.WriteFileAtomic(cellPath(dir, key), append(data, '\n'))
}

// jobPath returns the spec file of one job ID.
func jobPath(dir, id string) string {
	return filepath.Join(dir, jobsDirName, id+".json")
}

// persistJobLocked writes j's spec record. Callers hold the server mutex.
func (s *Server) persistJobLocked(j *Job) error {
	spec := j.Spec
	if !spec.Axes.Empty() {
		spec.Sweep = "" // Axes is authoritative; both set would fail re-validation
	}
	data, err := json.Marshal(persistedJob{ID: j.ID, Client: j.Client, QueuedAt: j.QueuedAt, Spec: spec})
	if err != nil {
		return err
	}
	return experiments.WriteFileAtomic(jobPath(s.cfg.StateDir, j.ID), append(data, '\n'))
}

// restore loads the state directory into a freshly-built server: cells
// into the LRU, job records into the queue under their original IDs.
// Called from New before the workers start; the queue channel is empty,
// so restored jobs enqueue without racing anything.
func (s *Server) restore() error {
	dir := s.cfg.StateDir
	for _, sub := range []string{cellsDirName, jobsDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}

	cellFiles, err := sortedJSONFiles(filepath.Join(dir, cellsDirName))
	if err != nil {
		return err
	}
	for _, path := range cellFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var pc persistedCell
		if err := json.Unmarshal(data, &pc); err != nil {
			return fmt.Errorf("corrupt cell record %s: %w", path, err)
		}
		if pc.Key == "" || pc.Result == nil {
			return fmt.Errorf("corrupt cell record %s: missing key or result", path)
		}
		if path != cellPath(dir, pc.Key) {
			return fmt.Errorf("cell record %s does not match its key %q", path, pc.Key)
		}
		s.cache.insert(pc.Key, pc.Result)
		s.persist.CellsLoaded++
	}

	jobFiles, err := sortedJSONFiles(filepath.Join(dir, jobsDirName))
	if err != nil {
		return err
	}
	if len(jobFiles) > s.cfg.QueueDepth {
		return fmt.Errorf("%d persisted jobs exceed the queue depth %d", len(jobFiles), s.cfg.QueueDepth)
	}
	for _, path := range jobFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var pj persistedJob
		if err := json.Unmarshal(data, &pj); err != nil {
			return fmt.Errorf("corrupt job record %s: %w", path, err)
		}
		if pj.ID == "" || path != jobPath(dir, pj.ID) {
			return fmt.Errorf("job record %s does not match its ID %q", path, pj.ID)
		}
		// Re-validate through the same boundary a live submit crosses, so
		// a record from an older daemon cannot smuggle in a spec the
		// current input rules reject.
		body, err := json.Marshal(pj.Spec)
		if err != nil {
			return err
		}
		spec, sc, err := DecodeJobSpec(body, s.cfg.MaxCells)
		if err != nil {
			return fmt.Errorf("job record %s no longer validates: %w", path, err)
		}
		j := newJob(pj.ID, pj.Client, spec, sc, pj.QueuedAt)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.usageOf(j.Client).Submitted++
		s.queued <- j
		if n := idNumber(j.ID); n > s.nextID {
			s.nextID = n
		}
		s.persist.JobsRestored++
	}
	return nil
}

// sortedJSONFiles lists dir's .json entries in name order — job IDs sort
// chronologically, so restored jobs re-queue in their original submit
// order.
func sortedJSONFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// idNumber extracts the numeric suffix of a "job-%06d" ID (0 when the ID
// has a foreign shape — it then simply doesn't advance the counter).
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}
