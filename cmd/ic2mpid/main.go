// Command ic2mpid is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts sweep and trace jobs as JSON (the
// experiments.Axes spec cmd/experiments takes), runs them on the bounded
// worker pool behind a FIFO job queue, streams per-iteration trace rows
// live over NDJSON/SSE, and caches completed sweep cells in an LRU keyed
// by their full deterministic spec — a hit is byte-identical to a fresh
// run, so results are infinitely cacheable.
//
// Usage:
//
//	ic2mpid                          # serve on :8080
//	ic2mpid -addr 127.0.0.1:0 -addr-file /tmp/addr   # random port, written to a file
//	ic2mpid -workers 4 -queue 512 -cache 8192        # sizing; a negative count is a usage error (-cache: disabled)
//	ic2mpid -token secret            # require "Authorization: Bearer secret" on /v1/*
//	ic2mpid -state /var/lib/ic2mpid  # persist cache + queued jobs across restarts
//
// Submit a job and fetch its result (see docs/daemon.md for the full
// cookbook):
//
//	curl -s localhost:8080/v1/jobs -d '{"scenario":"heat","sweep":"procs=1,2,4,8"}'
//	curl -s localhost:8080/v1/jobs/job-000001/stream      # NDJSON until the final state
//	curl -s localhost:8080/v1/jobs/job-000001/result      # byte-identical to cmd/experiments
//
// On SIGTERM or SIGINT the daemon drains: readiness and submits flip to
// 503, queued jobs are cancelled, running jobs finish (stopped once
// -drain-timeout passes), then the listener closes. With -state, completed
// cells and accepted job specs persist to disk; a restarted daemon
// reloads the cache, re-queues the jobs the shutdown interrupted under
// their original IDs, and recomputes only the cells that never
// finished.
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stderr, sig))
}

// run is the daemon on args: it serves until a signal arrives on sig, then
// drains. It returns the exit code: 2 for a usage error, 1 for a failure.
func run(args []string, stderr io.Writer, sig <-chan os.Signal) int {
	log := log.New(stderr, "ic2mpid: ", 0)
	fs := flag.NewFlagSet("ic2mpid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	workers := experiments.CountFlag(fs, "workers", 0, "`count` of concurrent jobs; 0 means number of CPUs")
	queue := experiments.CountFlag(fs, "queue", 0, "`count` of jobs the queue holds; 0 means 256")
	cache := fs.Int("cache", 0, "completed-cell LRU capacity; 0 means 4096, negative disables")
	maxCells := experiments.CountFlag(fs, "max-cells", 0, "largest accepted sweep, in `cells`; 0 means 4096")
	parallel := experiments.CountFlag(fs, "parallel", 0, "`count` of concurrent cells per job (the experiments worker pool); 0 means number of CPUs")
	token := fs.String("token", "", "when set, /v1/* requires 'Authorization: Bearer <token>'")
	stateDir := fs.String("state", "", "state directory; when set, the cell cache and queued jobs survive restarts")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace before running jobs are stopped on shutdown")
	if fs.Parse(args) != nil {
		return 2 // -h included; the flag package has printed the usage
	}
	experiments.Parallelism = *parallel

	srv := server.New(server.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheCells: *cache,
		MaxCells:   *maxCells,
		AuthToken:  *token,
		StateDir:   *stateDir,
	})
	if err := srv.RestoreError(); err != nil {
		log.Printf("restoring state from %s: %v", *stateDir, err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("listening on %s", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			log.Print(err)
			return 1
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done: // Serve stops early only on an error of its own
		log.Print(err)
		return 1
	case s := <-sig:
		log.Printf("received %s; draining (timeout %s)", s, *drainTimeout)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Wait(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelShutdown()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Print("drained; exiting")
	}
	return 0
}
