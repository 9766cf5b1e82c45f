package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// jobRef is what a job must return, computed in-process during set-up.
type jobRef struct {
	result, trace []byte
	cells         int
	sum           roundStats // the job's simulator counters
}

// daemonInst drives the daemon over a real listener. The loop is closed:
// callers of a simulation service wait for their reply, so each client sends
// its next job only when the previous one is complete. A round is a fixed
// seeded shuffle of the job mix against a fresh server, so the server's
// memory of past jobs does not grow with the length of the run.
type daemonInst struct {
	e       *env
	cached  bool
	clients int
	mix     []jobSpec
	perJob  int // copies of each job in one round
	ref     map[string]jobRef
}

func setupDaemon(e *env, cached bool) (*daemonInst, error) {
	d := &daemonInst{e: e, cached: cached, clients: min(e.nproc, 4), mix: daemonJobs, perJob: 20, ref: map[string]jobRef{}}
	if cached {
		d.mix, d.perJob = daemonJobs[:4], 400
	}
	if e.smoke {
		d.perJob = 4
	}
	setParallelism(e.nproc)
	for _, j := range daemonJobs {
		ref, err := referenceJob(e, j)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.id, err)
		}
		d.ref[j.id] = ref
	}
	// Warm-up: half a round through a server.
	if st := d.run(0, max(d.perJob/2, 1), d.clients, nil); st.err != nil {
		return nil, st.err
	}
	return d, nil
}

// referenceJob runs a job's sweep in-process, the way cmd/experiments would,
// and pins the bytes the daemon has to return for it.
func referenceJob(e *env, j jobSpec) (jobRef, error) {
	var ref jobRef
	spec, sc, err := decodeJobSpec([]byte(j.body), 4096)
	if err != nil {
		return ref, err
	}
	rep, err := runSweep(sc, spec.Axes)
	if err != nil {
		return ref, err
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, spec.Format, rep); err != nil {
		return ref, err
	}
	ref.result, ref.cells = buf.Bytes(), len(rep.Rows)
	for i := range rep.Rows {
		ref.sum.addResult(&rep.Rows[i].Result)
	}
	if err := e.book.check("daemon/"+j.id+"/result", ref.result); err != nil {
		return ref, err
	}
	if spec.Trace {
		p, err := spec.Axes.Single()
		if err != nil {
			return ref, err
		}
		p.Trace = &TraceRecorder{}
		if _, err := sc.Run(p); err != nil {
			return ref, err
		}
		var tbuf bytes.Buffer
		if err := traceWriteJSONL(&tbuf, p.Trace); err != nil {
			return ref, err
		}
		ref.trace = tbuf.Bytes()
		if err := e.book.check("daemon/"+j.id+"/trace", ref.trace); err != nil {
			return ref, err
		}
	}
	return ref, nil
}

// jobTimes are the client-side instants of one job: submit sent, submit
// answered, first result line, stream EOF, document read, result read.
type jobTimes struct {
	t           [6]time.Time
	queueNS     int64
	cacheHits   int
	streamBytes int
}

var statePrefix = []byte(`{"kind":"state"`)

func get(c *http.Client, url string) ([]byte, error) {
	res, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err == nil && res.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", url, res.StatusCode, body)
	}
	return body, err
}

// runJob is one op: POST the job, follow its stream to EOF, read the job
// document, read the result — and check every byte against the reference.
func (d *daemonInst) runJob(c *http.Client, base string, j jobSpec) (jt jobTimes, err error) {
	ref := d.ref[j.id]
	jt.t[0] = time.Now()
	res, err := c.Post(base+"/v1/jobs", "application/json", strings.NewReader(j.body))
	if err != nil {
		return jt, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return jt, err
	}
	if res.StatusCode != http.StatusCreated {
		return jt, fmt.Errorf("submit: %d %s", res.StatusCode, body)
	}
	var doc struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		QueueNS   int64  `json:"queue_ns"`
		Cells     int    `json:"cells"`
		CellsDone int    `json:"cells_done"`
		CacheHits int    `json:"cache_hits"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return jt, err
	}
	jt.t[1] = time.Now()
	jobURL := base + "/v1/jobs/" + doc.ID

	if res, err = c.Get(jobURL + "/stream"); err != nil {
		return jt, err
	}
	var streamed bytes.Buffer // the non-state lines: cell events, or the live trace
	var last []byte
	br := bufio.NewReader(res.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			jt.streamBytes += len(line)
			if !bytes.HasPrefix(line, statePrefix) {
				if jt.t[2].IsZero() {
					jt.t[2] = time.Now()
				}
				streamed.Write(line)
			}
			last = line
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			break
		}
	}
	res.Body.Close()
	jt.t[3] = time.Now()
	if err != nil {
		return jt, err
	}
	if jt.t[2].IsZero() {
		return jt, errors.New("stream carried no result line")
	}
	if !bytes.Contains(last, []byte(`"state":"done"`)) {
		return jt, fmt.Errorf("stream ended with %q", last)
	}

	if body, err = get(c, jobURL); err != nil {
		return jt, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return jt, err
	}
	jt.t[4] = time.Now()
	if doc.State != "done" || doc.CellsDone != ref.cells {
		return jt, fmt.Errorf("job %s: state %s, %d of %d cells", doc.ID, doc.State, doc.CellsDone, ref.cells)
	}
	jt.queueNS, jt.cacheHits = doc.QueueNS, doc.CacheHits

	if body, err = get(c, jobURL+"/result"); err != nil {
		return jt, err
	}
	jt.t[5] = time.Now()
	if !bytes.Equal(body, ref.result) {
		return jt, fmt.Errorf("job %s (%s): result differs from the in-process report", doc.ID, j.id)
	}
	if j.trace {
		if body, err = get(c, jobURL+"/trace"); err != nil {
			return jt, err
		}
		if !bytes.Equal(body, ref.trace) || !bytes.Equal(streamed.Bytes(), ref.trace) {
			return jt, fmt.Errorf("job %s (%s): trace differs (stream %d, /trace %d, in-process %d bytes)",
				doc.ID, j.id, streamed.Len(), len(body), len(ref.trace))
		}
	}
	return jt, nil
}

// order is round n's job sequence: a seeded shuffle of perJob copies of
// each job in the mix, so the counts never depend on the seed.
func (d *daemonInst) order(n, perJob int) []jobSpec {
	jobs := make([]jobSpec, 0, perJob*len(d.mix))
	for i := 0; i < perJob; i++ {
		jobs = append(jobs, d.mix...)
	}
	rng := rand.New(rand.NewSource(d.e.seed*1_000_003 + int64(n)))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

func (d *daemonInst) round(n int) roundStats { return d.run(n, d.perJob, d.clients, nil) }

// serial runs half a round from one client.
func (d *daemonInst) serial(n int) roundStats { return d.run(n, max(d.perJob/2, 1), 1, nil) }

// traced is serial with one span per client-side step: job holds
// server.submit, server.stream (which holds server.first_result),
// server.getdoc and server.result.
func (d *daemonInst) traced(rec *recorder, n int) roundStats {
	return d.run(n, max(d.perJob/2, 1), 1, rec)
}

// run starts a server, fills its cache if the workload is the cached one,
// and pushes one shuffled batch through it from the given number of
// clients. Only the batch is timed.
func (d *daemonInst) run(n, perJob, clients int, rec *recorder) roundStats {
	cfg := ServerConfig{}
	if !d.cached {
		cfg = ServerConfig{CacheCells: -1, QueueDepth: 1 << 16}
	}
	return d.runOn(cfg, n, perJob, clients, rec)
}

func (d *daemonInst) runOn(cfg ServerConfig, n, perJob, clients int, rec *recorder) (st roundStats) {
	srv := serverNew(cfg)
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer func() {
		client.CloseIdleConnections()
		ts.Close()
		srv.Close()
	}()

	warmCells := 0
	if d.cached {
		for _, j := range d.mix {
			if _, err := d.runJob(client, ts.URL, j); err != nil {
				st.fail(0, fmt.Errorf("cache fill: %w", err))
				return st
			}
			warmCells += d.ref[j.id].cells
		}
	}

	jobs := d.order(n, perJob)
	times := make([]jobTimes, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				times[i], errs[i] = d.runJob(client, ts.URL, jobs[i])
			}
		}()
	}
	wg.Wait()
	st.wall, st.cpu = time.Since(t0), cpuTime()-c0

	root := -1
	if rec != nil {
		root = rec.add(n, -1, "batch", t0, t0.Add(st.wall))
	}
	cells := 0
	for i, j := range jobs {
		st.ops++
		ref, jt := d.ref[j.id], times[i]
		err := errs[i]
		hits := 0
		if d.cached {
			hits = ref.cells
		}
		if err == nil && !j.trace && jt.cacheHits != hits {
			err = fmt.Errorf("%s: %d cache hits, want %d", j.id, jt.cacheHits, hits)
		}
		if err != nil {
			st.fail(1, err)
			continue
		}
		if !j.trace { // a traced job bypasses the cell cache
			cells += ref.cells
		}
		st.msgs, st.bytes, st.virtualS = st.msgs+ref.sum.msgs, st.bytes+ref.sum.bytes, st.virtualS+ref.sum.virtualS
		st.lat = append(st.lat, ms(jt.t[5].Sub(jt.t[0])))
		st.first = append(st.first, ms(jt.t[2].Sub(jt.t[0])))
		st.queue = append(st.queue, float64(jt.queueNS)/1e6)
		st.streamBytes += jt.streamBytes
		if rec != nil {
			trace := n<<20 | i
			job := rec.add(trace, root, "job", jt.t[0], jt.t[5])
			rec.count(job, "queue_ns", jt.queueNS)
			rec.add(trace, job, "server.submit", jt.t[0], jt.t[1])
			stream := rec.add(trace, job, "server.stream", jt.t[1], jt.t[3])
			rec.add(trace, stream, "server.first_result", jt.t[1], jt.t[2])
			rec.add(trace, job, "server.getdoc", jt.t[3], jt.t[4])
			rec.add(trace, job, "server.result", jt.t[4], jt.t[5])
		}
	}

	// The server's own counters have to agree with what the clients saw.
	var stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	body, err := get(client, ts.URL+"/v1/stats")
	if err == nil {
		err = json.Unmarshal(body, &stats)
	}
	wantHits, wantMisses := int64(0), int64(cells)
	if d.cached {
		wantHits, wantMisses = int64(cells), int64(warmCells)
	}
	if err == nil && st.failed == 0 && (stats.Cache.Hits != wantHits || stats.Cache.Misses != wantMisses) {
		err = fmt.Errorf("/v1/stats: %d hits %d misses, want %d and %d", stats.Cache.Hits, stats.Cache.Misses, wantHits, wantMisses)
	}
	if err != nil {
		st.fail(st.ops-st.failed, err) // the whole round's accounting is suspect
	}
	st.cacheHits = int(stats.Cache.Hits)
	st.cellsRun = int(stats.Cache.Misses) - warmCells
	return st
}
