package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"
)

// layerCache holds the layer probes' metrics, which do not depend on the
// workload a traced run was asked for.
type layerCache struct {
	metrics []metric
	failed  int
}

// prober collects the per-layer metrics. Every probe times calls into the
// simulator's public functions from outside; reps is the repetition count of
// the cheap probes, heavy that of the ones that run a whole big-machine cell.
// The first error sticks: every later measurement is skipped and the probes
// report it.
type prober struct {
	e           *env
	out         string
	reps, heavy int
	metrics     []metric
	failed      int
	err         error
}

func (p *prober) add(name string, v float64, unit string, n int) {
	p.metrics = append(p.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (p *prober) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// measure returns the median duration of fn over reps runs.
func (p *prober) measure(reps int, fn func() error) time.Duration {
	if p.err != nil {
		return 0
	}
	return timeReps(reps, func() {
		if err := fn(); err != nil {
			p.fail(err)
		}
	})
}

// timed reports measure(reps, fn) divided by per, in "ms", "us" or "ns".
func (p *prober) timed(name, unit string, reps int, per float64, fn func() error) {
	scale := map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}[unit]
	p.add(name, float64(p.measure(reps, fn))/scale/per, unit, reps)
}

// layerProbes measures every layer on its own. The sources are the three
// kinds of workload (sweep, machine, daemon) at a fixed small size, plus
// micro-probes of single calls.
func layerProbes(cfg runConfig, e *env) ([]metric, int, error) {
	p := &prober{e: e, out: cfg.out, reps: 10, heavy: 5}
	if cfg.smoke {
		p.reps, p.heavy = 1, 1
	}
	var cal []float64 // one calibration sample after each group of probes
	for _, probe := range []struct {
		name string
		fn   func()
	}{
		{"sweep", p.sweepLayers}, {"experiments", p.experimentsLayers}, {"machine", p.machineLayers},
		{"checkpoint", p.checkpointLayers}, {"daemon", p.daemonLayers}, {"mpi", p.mpiLayers},
		{"small", p.smallLayers}, {"balance", p.balanceLayers}, {"trace", p.traceLayers}, {"shard", p.shardLayers},
	} {
		t0 := time.Now()
		if probe.fn(); p.err != nil {
			return nil, 0, fmt.Errorf("%s probes: %w", probe.name, p.err)
		}
		fmt.Fprintf(cfg.log, "# %s probes took %.1f s\n", probe.name, time.Since(t0).Seconds())
		cal = append(cal, calibrate(cfg.nproc))
	}
	// Per-layer times are as measured; this says how fast the host was.
	p.add("bench.host_speed", hostSpeed(cal), "ratio", len(cal))
	return p.metrics, p.failed, nil
}

func (p *prober) sweepSet() []sweepSpec {
	if p.e.smoke {
		return smokeSweepSet
	}
	return sweepSet
}

// sweepLayers runs the sweep set untraced at the host's parallelism and at
// one cell at a time, then traced, and reads the per-cell layers off the
// spans.
func (p *prober) sweepLayers() {
	s, err := setupSweep(p.e, p.sweepSet())
	if err != nil {
		p.fail(err)
		return
	}
	var par, par1 tally
	for n := 1; n <= max(p.heavy/2, 1); n++ {
		par.add(s.round(n))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for n := 1; n <= max(p.heavy*3/5, 1); n++ {
		par1.add(s.serial(n))
	}
	runtime.ReadMemStats(&m1)
	rec := newRecorder()
	tr := s.traced(rec, 1)
	p.failed += par.fails + par1.fails + tr.failed
	for _, err := range []error{par.err, par1.err, tr.err} {
		if err != nil {
			p.fail(err)
			return
		}
	}

	rate, rate1 := median(par.rates()), median(par1.rates())
	p.add("experiments.cells_per_s", rate, "1/s", len(par.rounds))
	p.add("experiments.cells_per_s_par1", rate1, "1/s", len(par1.rounds))
	p.add("experiments.parallel_efficiency", rate/(float64(p.e.nproc)*rate1), "ratio", len(par.rounds))
	p.add("platform.allocs_per_cell", float64(m1.Mallocs-m0.Mallocs)/float64(par1.ops), "count", par1.ops)
	p.add("partition.edge_cut", float64(tr.edgeCut), "count", 1)
	p.add("balance.migrations", float64(tr.migrations), "count", 1)

	for _, m := range [][2]string{
		{"replica/graph.gen", "graph.gen_ms"}, {"platform.run", "platform.run_ms.small"},
		{"partition.evaluate", "partition.evaluate_ms"}, {"bsp.run", "bsp.pagerank_ms"},
	} {
		ds := rec.durations(m[0])
		p.add(m[1], median(ds), "ms", len(ds))
	}
	// scenario.config minus the stand-alone replicas of the layers it calls,
	// per cell: what Config costs by itself.
	config, replicas := map[int]float64{}, map[int]float64{}
	for _, sp := range rec.spans {
		d := float64(sp.End-sp.Start) / 1e6
		switch {
		case sp.Name == "scenario.config":
			config[sp.Trace] = d
		case sp.Parent >= 0 && rec.spans[sp.Parent].Name == "bench.replica":
			replicas[sp.Trace] += d
		}
	}
	var self []float64
	for trace, d := range config {
		self = append(self, d-replicas[trace])
	}
	p.add("scenario.config_self_ms", median(self), "ms", len(self))
}

// experimentsLayers times the sweep engine and the encoders with the
// simulation taken out: every cell's result is computed beforehand.
func (p *prober) experimentsLayers() {
	set := p.sweepSet()
	scs := make([]Scenario, len(set))
	axes := make([]Axes, len(set))
	reports := make([]*SweepReport, len(set))
	var cells []Params
	var cellSc []Scenario
	for i, sp := range set {
		var err error
		if scs[i], err = scenarioGet(sp.scenario); err == nil {
			if axes[i], err = parseAxes(sp.sweep); err == nil {
				reports[i], err = runSweep(scs[i], axes[i])
			}
		}
		if err != nil {
			p.fail(err)
			return
		}
		for _, c := range axes[i].Cells() {
			cells, cellSc = append(cells, c), append(cellSc, scs[i])
		}
	}
	n := float64(len(cells))
	p.timed("experiments.parse_axes_us", "us", p.reps, float64(len(set)), func() (err error) {
		for _, sp := range set {
			if _, err = parseAxes(sp.sweep); err != nil {
				break
			}
		}
		return err
	})
	p.timed("experiments.cellkey_us", "us", p.reps, n, func() (err error) {
		for i, c := range cells {
			if _, err = cellKey(cellSc[i], c); err != nil {
				break
			}
		}
		return err
	})
	p.timed("scenario.normalize_us", "us", p.reps, n, func() (err error) {
		for i, c := range cells {
			if _, err = cellSc[i].Normalize(c); err != nil {
				break
			}
		}
		return err
	})
	p.timed("experiments.engine_self_ms", "ms", p.reps, 1, func() (err error) {
		for i := range set {
			rows := reports[i].Rows
			if _, err = runSweepWith(scs[i], axes[i], func(_ Scenario, cell int, _ Params) (*Result, error) {
				return &rows[cell].Result, nil
			}); err != nil {
				break
			}
		}
		return err
	})
	for _, format := range []string{"json", "csv"} {
		bytesOut := 0
		p.timed("experiments.encode_"+format+"_ms", "ms", p.reps, 1, func() error {
			bytesOut = 0
			for _, rep := range reports {
				var buf bytes.Buffer
				if err := writeReport(&buf, format, rep); err != nil {
					return err
				}
				bytesOut += buf.Len()
			}
			return nil
		})
		if format == "json" {
			p.add("experiments.report_bytes", float64(bytesOut), "count", 1)
		}
	}
}

// machineLayers measures the two big-machine cells: the whole run under each
// kernel, and platform.Run alone at two lengths, whose intercept and slope
// are the start-up and the per-iteration cost.
func (p *prober) machineLayers() {
	for _, cell := range []machineCell{sparseCell, denseCell} {
		sc, err := cell.sc()
		if err != nil {
			p.fail(err)
			return
		}
		work := float64(cell.params.Procs * cell.params.Iterations)
		for _, k := range kernels {
			params := cell.params
			params.Kernel = k
			d := p.measure(p.heavy, func() error {
				res, err := sc.Run(params)
				if err == nil {
					err = p.e.book.check("machine_"+cell.name, resultBytes(res))
				}
				return err
			})
			p.add("mpi.rank_iters_per_s."+k+"."+cell.name, work/d.Seconds(), "1/s", p.heavy)
		}

		// One iteration against five times the cell's, in alternation: the
		// difference is iterations 2..N, and what is left of the short run
		// is start-up. At the cell's own length the sparse cell's iterations
		// are lost in the noise of its start-up.
		one, many := cell.params, cell.params
		one.Iterations, many.Iterations = 1, 5*cell.params.Iterations
		short, err := sc.Config(one)
		if err != nil {
			p.fail(err)
			return
		}
		long, err := sc.Config(many)
		if err != nil {
			p.fail(err)
			return
		}
		var shortMS, diffMS []float64
		var msgs int
		for i := 0; i < p.reps; i++ {
			t0 := time.Now()
			a, err := platformRun(*short)
			t1 := time.Now()
			if err != nil {
				p.fail(err)
				return
			}
			b, err := platformRun(*long)
			if err != nil {
				p.fail(err)
				return
			}
			shortMS, diffMS = append(shortMS, ms(t1.Sub(t0))), append(diffMS, ms(time.Since(t1))-ms(t1.Sub(t0)))
			msgs = 0
			for r := range b.Stats {
				msgs += b.Stats[r].MessagesSent - a.Stats[r].MessagesSent
			}
		}
		iter := median(diffMS) / float64(many.Iterations-1)
		p.add("platform.iter_ms."+cell.name, iter, "ms", p.reps)
		p.add("platform.init_ms."+cell.name, median(shortMS)-iter, "ms", p.reps)
		if cell.name == "dense" {
			p.add("platform.ns_per_msg.dense", 1e6*median(diffMS)/float64(msgs), "ns", p.reps)
		}
	}

	// Host memory per simulated rank: the peak of heap and stacks in use
	// during one run of the sparse cell, above what was in use before it.
	sc, err := sparseCell.sc()
	if err != nil {
		p.fail(err)
		return
	}
	for _, k := range kernels {
		params := sparseCell.params
		params.Kernel = k
		peak, err := peakInUse(func() error { _, err := sc.Run(params); return err })
		if err != nil {
			p.fail(err)
			return
		}
		p.add("mpi.peak_bytes_per_rank."+k, peak/float64(params.Procs), "B", 1)
	}

	// pevent at one worker over pevent at two, on the cell with real work.
	if sc, err = denseCell.sc(); err != nil {
		p.fail(err)
		return
	}
	var w [3]time.Duration
	for _, workers := range []int{1, 2} {
		params := denseCell.params
		params.Kernel, params.KernelWorkers = "pevent", workers
		w[workers] = p.measure(p.heavy, func() error { _, err := sc.Run(params); return err })
	}
	p.add("mpi.pevent_scaling_2w", float64(w[1])/float64(w[2]), "ratio", p.heavy)

	g, err := sc.Graph()
	if err != nil {
		p.fail(err)
		return
	}
	p.timed("partition.metis_ms.dense", "ms", p.heavy, 1, func() error {
		_, err := partitionOn("metis", g, denseCell.params.Procs, nil)
		return err
	})
}

// peakInUse runs fn while sampling the runtime's heap and stack use, and
// returns the peak above the level before fn started.
func peakInUse(fn func() error) (float64, error) {
	inUse := func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapInuse + m.StackInuse)
	}
	runtime.GC()
	base, peak := inUse(), 0.0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, inUse())
			}
		}
	}()
	err := fn()
	close(stop)
	wg.Wait()
	return max(peak, inUse()) - base, err
}

// checkpointLayers snapshots the dense cell at iteration 10 and measures the
// snapshot codec, the cost of checkpointing every five iterations into an
// encoding sink, and the resume.
func (p *prober) checkpointLayers() {
	sc, err := denseCell.sc()
	if err != nil {
		p.fail(err)
		return
	}
	key, err := cellKey(sc, denseCell.params)
	if err != nil {
		p.fail(err)
		return
	}
	meta := SnapshotMeta{CellKey: key}
	plain, err := sc.Config(denseCell.params)
	if err != nil {
		p.fail(err)
		return
	}
	sinking := *plain
	var snap *RunSnapshot
	sinking.CheckpointEvery = 5
	sinking.CheckpointSink = func(s *RunSnapshot) error {
		if s.Iter == 10 {
			snap = s
		}
		_, err := checkpointEncode(meta, s)
		return err
	}
	var ref, resumed *PlatformResult
	off := p.measure(p.heavy, func() (err error) { ref, err = platformRun(*plain); return err })
	on := p.measure(p.heavy, func() error { _, err := platformRun(sinking); return err })
	p.add("checkpoint.run_overhead_pct", 100*(float64(on)/float64(off)-1), "%", p.heavy)

	var data []byte
	p.timed("checkpoint.encode_ms", "ms", p.reps, 1, func() (err error) {
		data, err = checkpointEncode(meta, snap)
		return err
	})
	p.add("checkpoint.bytes", float64(len(data)), "count", 1)
	resuming := *plain
	p.timed("checkpoint.decode_ms", "ms", p.reps, 1, func() (err error) {
		_, resuming.ResumeFrom, err = checkpointDecode(data)
		return err
	})
	p.timed("checkpoint.resume_ms", "ms", p.heavy, 1, func() (err error) {
		resumed, err = platformRun(resuming)
		return err
	})
	if p.err == nil && resumed.Elapsed != ref.Elapsed {
		p.fail(fmt.Errorf("checkpoint: resumed run ends at %g virtual s, uninterrupted at %g", resumed.Elapsed, ref.Elapsed))
	}
}

// daemonLayers loads both daemon configurations from the host's clients for
// the latency percentiles and the queue, then follows single jobs on the
// cached one, where the server layer is the whole op.
func (p *prober) daemonLayers() {
	// run pushes perJob copies of the mix through d, or two in the smoke path.
	run := func(d *daemonInst, n, perJob, clients int, rec *recorder) (roundStats, bool) {
		if p.e.smoke {
			perJob = 2
		}
		st := d.run(n, perJob, clients, rec)
		p.failed += st.failed
		if st.err != nil {
			p.fail(st.err)
		}
		return st, st.err == nil
	}
	perJob := map[bool]int{false: 200, true: 500} // 1000 and 2000 jobs: ten or more beyond p99
	var cachedInst *daemonInst
	for _, cached := range []bool{false, true} {
		d, err := setupDaemon(p.e, cached)
		if err != nil {
			p.fail(err)
			return
		}
		st, ok := run(d, 1, perJob[cached], d.clients, nil)
		if !ok {
			return
		}
		kind := map[bool]string{false: "cold", true: "cached"}[cached]
		jobs := len(st.lat)
		p.add("server.jobs_per_s."+kind, float64(st.ops)/st.wall.Seconds(), "1/s", jobs)
		p.add("server.job_ms_p50."+kind, median(st.lat), "ms", jobs)
		p.add("server.job_ms_p99."+kind, percentile(st.lat, 0.99), "ms", jobs)
		p.add("server.first_result_ms_p50."+kind, median(st.first), "ms", jobs)
		if cached {
			cachedInst = d
			p.add("server.cache_hits", float64(st.cacheHits), "count", 1)
			p.add("server.cache_hit_ratio", float64(st.cacheHits)/float64(st.cacheHits+st.cellsRun), "ratio", 1)
			p.add("server.stream_bytes_per_job", float64(st.streamBytes)/float64(jobs), "B", jobs)
		} else {
			p.add("server.cells_run", float64(st.cellsRun), "count", 1)
			p.add("server.queue_ms_p50", median(st.queue), "ms", jobs)
			p.add("server.queue_ms_p99", percentile(st.queue, 0.99), "ms", jobs)
		}
	}

	rec := newRecorder()
	if _, ok := run(cachedInst, 2, 100, 1, rec); !ok {
		return
	}
	for _, step := range []string{"submit", "stream", "getdoc", "result"} {
		ds := rec.durations("server." + step)
		p.add("server."+step+"_ms_p50", median(ds), "ms", len(ds))
	}

	p.timed("server.decode_spec_us", "us", p.reps, float64(len(daemonJobs)), func() (err error) {
		for _, j := range daemonJobs {
			if _, _, err = decodeJobSpec([]byte(j.body), 4096); err != nil {
				break
			}
		}
		return err
	})

	// Restart over a state directory that holds the warmed cache.
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		p.fail(err)
		return
	}
	dir, err := os.MkdirTemp(p.out, "state-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	if st := cachedInst.runOn(ServerConfig{StateDir: dir}, 3, 1, 1, nil); st.err != nil {
		p.fail(st.err)
		return
	}
	p.timed("server.restore_ms", "ms", p.reps, 1, func() error {
		srv := serverNew(ServerConfig{StateDir: dir})
		err := srv.RestoreError()
		srv.Close()
		return err
	})
}

// mpiLayers drives bare mpi.Run with the benchmark's own rank functions,
// under each kernel, on the hypercube the scenarios default to.
func (p *prober) mpiLayers() {
	run := func(kernel string, procs int, fn func(c *Comm) error) func() error {
		return func() error {
			k, err := parseKernel(kernel)
			if err != nil {
				return err
			}
			net, err := netmodelNew("hypercube", procs)
			if err != nil {
				return err
			}
			return mpiRun(MPIOptions{Procs: procs, Cost: net, Kernel: k}, fn)
		}
	}
	const barriers, gathers, haloIters = 30, 10, 20
	// halo is one exchange with six neighbours on a 16-wide torus of ranks.
	halo := func(c *Comm, it int) error {
		var peers [6]int
		for i, off := range []int{1, 16, 17} {
			peers[2*i], peers[2*i+1] = (c.Rank()+off)%c.Size(), (c.Rank()-off+c.Size())%c.Size()
		}
		for _, dst := range peers {
			if err := c.Isend(dst, it, c.Rank(), 64); err != nil {
				return err
			}
		}
		for _, src := range peers {
			if _, err := c.Recv(src, it); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	for _, k := range kernels {
		p.timed("mpi.spawn_us_per_rank."+k, "us", p.reps, 4096, run(k, 4096, func(*Comm) error { return nil }))
		p.timed("mpi.barrier_ns_per_rank."+k, "ns", p.heavy, 4096*barriers, run(k, 4096, func(c *Comm) (err error) {
			for i := 0; i < barriers && err == nil; i++ {
				err = c.Barrier()
			}
			return err
		}))
		p.timed("mpi.allgather_ns_per_rank."+k, "ns", p.heavy, 1024*gathers, run(k, 1024, func(c *Comm) (err error) {
			for i := 0; i < gathers && err == nil; i++ {
				_, err = c.Allgather(c.Rank(), 8)
			}
			return err
		}))
		p.timed("mpi.halo_ns_per_msg."+k, "ns", p.reps, 256*6*haloIters, run(k, 256, func(c *Comm) (err error) {
			for it := 0; it < haloIters && err == nil; it++ {
				err = halo(c, it)
			}
			return err
		}))
	}
}

// smallLayers times single calls into netmodel, fault and the partitioners
// at the sizes the sweep cells use.
func (p *prober) smallLayers() {
	for _, procs := range []int{16, 256, 4096} {
		p.timed(fmt.Sprintf("netmodel.new_ms.p%d", procs), "ms", p.reps, 1, func() error {
			_, err := netmodelNew("hypercube", procs)
			return err
		})
	}
	net, err := netmodelNew("hypercube", 1024)
	if err != nil {
		p.fail(err)
		return
	}
	calls := 1_000_000
	if p.e.smoke {
		calls = 10_000
	}
	p.timed("netmodel.arrival_ns", "ns", p.reps, float64(calls), func() error {
		sum := 0.0
		for i := 0; i < calls; i++ {
			sum += net.ArrivalTime(i&1023, (i*7+3)&1023, float64(i), 1024)
		}
		if sum <= 0 {
			return fmt.Errorf("netmodel.arrival_ns: arrival times sum to %g", sum)
		}
		return nil
	})

	net16, err := netmodelNew("hypercube", 16)
	if err != nil {
		p.fail(err)
		return
	}
	p.timed("fault.wrap_ms", "ms", p.reps, 1, func() error {
		sched, err := faultParse("chaos@7")
		if err == nil {
			_, err = faultWrap(net16, sched, 16, 50)
		}
		return err
	})

	for _, pr := range [][3]string{
		{"partition.metis_ms.small", "metis", "hex64-fine"},
		{"partition.pagrid_ms.small", "pagrid", "hex64-fine"},
		{"partition.geometric_ms", "rcb", "life"},
	} {
		sc, err := scenarioGet(pr[2])
		if err != nil {
			p.fail(err)
			return
		}
		g, err := sc.Graph()
		if err != nil {
			p.fail(err)
			return
		}
		p.timed(pr[0], "ms", p.reps, 1, func() error {
			_, err := partitionOn(pr[1], g, 16, net16)
			return err
		})
	}
}

// balanceLayers times each balancer's Plan on one seeded 256-processor
// graph, and a whole balanced run against an unbalanced one.
func (p *prober) balanceLayers() {
	const procs = 256
	rng := rand.New(rand.NewSource(256))
	pg := ProcGraph{Times: make([]float64, procs), Comm: make([][]int, procs)}
	for i := range pg.Comm {
		pg.Times[i] = 1 + 4*rng.Float64()*rng.Float64()
		pg.Comm[i] = make([]int, procs)
	}
	for i := 0; i < procs; i++ {
		for bit := 1; bit < procs; bit <<= 1 { // hypercube neighbours
			if k := i ^ bit; k > i {
				w := 1 + rng.Intn(64)
				pg.Comm[i][k], pg.Comm[k][i] = w, w
			}
		}
	}
	for _, name := range []string{"centralized", "diffusion", "worksteal", "hierarchical", "predictive"} {
		bal, err := newBalancerOn(name, "hypercube", procs)
		if err != nil {
			p.fail(err)
			return
		}
		p.timed("balance.plan_us."+name, "us", p.reps, 1, func() error {
			bal.Plan(pg)
			return nil
		})
	}

	sc, err := scenarioGet("imbalance")
	if err != nil {
		p.fail(err)
		return
	}
	var t [2]time.Duration
	for i, bal := range []string{"none", "diffusion"} {
		cfg, err := sc.Config(Params{Procs: 16, Balancer: bal})
		if err != nil {
			p.fail(err)
			return
		}
		t[i] = p.measure(p.reps, func() error { _, err := platformRun(*cfg); return err })
	}
	p.add("balance.run_overhead_ms", ms(t[1]-t[0]), "ms", p.reps)
}

// traceLayers measures the simulator's own trace recorder on heat at 16
// procs and 50 iterations: the run with and without it, and the encoder.
func (p *prober) traceLayers() {
	sc, err := scenarioGet("heat")
	if err != nil {
		p.fail(err)
		return
	}
	params := Params{Procs: 16, Iterations: 50}
	run := func() error { _, err := sc.Run(params); return err }
	off := p.measure(p.reps, run)
	rec := &TraceRecorder{}
	params.Trace = rec
	on := p.measure(p.reps, run)
	p.add("trace.record_overhead_pct", 100*(float64(on)/float64(off)-1), "%", p.reps)
	var buf bytes.Buffer
	p.timed("trace.write_jsonl_ms", "ms", p.reps, 1, func() error {
		buf.Reset()
		return traceWriteJSONL(&buf, rec)
	})
	p.add("trace.jsonl_bytes", float64(buf.Len()), "count", 1)
}

// shardLayers plans a four-shard split of the 45-cell hex64 sweep, runs the
// shards and times the merge.
func (p *prober) shardLayers() {
	sp := sweepSet[0]
	sc, err := scenarioGet(sp.scenario)
	if err != nil {
		p.fail(err)
		return
	}
	ax, err := parseAxes(sp.sweep)
	if err != nil {
		p.fail(err)
		return
	}
	var m *Manifest
	p.timed("shard.plan_ms", "ms", p.reps, 1, func() (err error) {
		if m, err = shardNew(sc, sp.sweep, ax, 4); err == nil {
			_, err = m.Encode()
		}
		return err
	})
	for i := 0; i < 4 && p.err == nil; i++ {
		if err := m.RunShard(sc, i); err != nil {
			p.fail(err)
		}
	}
	var rep *SweepReport
	p.timed("shard.merge_ms", "ms", p.reps, 1, func() (err error) {
		rep, err = m.Merge(sc)
		return err
	})
	if p.err != nil {
		return
	}
	// The merged report has to be the unsharded one, byte for byte.
	body, err := encodeJSON(rep)
	if err == nil {
		err = p.e.book.check("sweep_small/"+sp.id, body)
	}
	var data []byte
	if err == nil {
		data, err = m.Encode()
	}
	if err != nil {
		p.fail(err)
		return
	}
	p.add("shard.manifest_bytes", float64(len(data)), "count", 1)
}
