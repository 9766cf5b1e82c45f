// Package server implements the simulation-as-a-service daemon behind
// cmd/ic2mpid: a long-running HTTP API that accepts sweep and trace jobs
// as JSON (experiments.Axes specs verbatim), runs them on the
// experiments package's bounded worker pool behind a FIFO job queue, and
// exploits the platform's end-to-end determinism as a cache — every
// completed sweep cell is stored in an LRU keyed by its full normalized
// spec (experiments.CellKey), and a cache hit is byte-identical to a
// fresh run by construction.
//
// Surface (see docs/daemon.md for the curl cookbook):
//
//	POST /v1/jobs               submit a job; 201 with the job document
//	GET  /v1/jobs               list jobs (optionally ?state=...)
//	GET  /v1/jobs/{id}          inspect one job
//	POST /v1/jobs/{id}/cancel   cancel (queued: immediate; running: at the next iteration)
//	GET  /v1/jobs/{id}/result   completed report bytes (json/csv/text)
//	GET  /v1/jobs/{id}/trace    canonical JSONL trace of a traced job
//	GET  /v1/jobs/{id}/stream   live NDJSON (or SSE) event stream
//	GET  /v1/scenarios          registered scenarios
//	GET  /v1/usage              per-client usage counters
//	GET  /v1/stats              queue/cache/worker counters
//	GET  /healthz, /readyz      liveness and readiness (503 while draining)
//
// Job lifecycle: queued -> running -> done | failed | cancelled. A
// queued job cancels immediately; a running one at its ranks' next
// iteration boundary (platform.Host.Stop). Drain stops intake (submits
// and readiness return 503), cancels still-queued jobs, and lets running
// jobs finish, or stops them once Wait's deadline passes — the shutdown
// path cmd/ic2mpid wires to SIGTERM.
//
// Determinism contract: a job's result bytes equal the output of
// `cmd/experiments -scenario S -sweep ... -format F` for the same spec,
// whether each cell was simulated or served from the cache, and a traced
// job's stream carries the canonical trace lines byte-identically to the
// post-run encoding. The conformance suite pins both properties.
package server
