package main

import (
	"bytes"
	"fmt"
	"time"
)

// env is what one run of the benchmark hands to its workloads.
type env struct {
	seed  int64
	nproc int
	smoke bool
	book  *digestBook
}

// roundStats is what one round of a workload measured. A round is a fixed
// amount of work, so op counts and simulator counters are the same on any
// two commits; only the times differ.
type roundStats struct {
	ops, failed int
	wall, cpu   time.Duration
	lat         []float64 // per-op latency, ms
	first       []float64 // daemon: submit sent -> first result line, ms
	queue       []float64 // daemon: the job document's queue_ns, ms
	streamBytes int       // daemon: bytes read from /stream
	cacheHits   int       // daemon: /v1/stats cache hits
	cellsRun    int       // daemon: cells simulated for the timed jobs
	err         error     // the first failure, for the log
	// Simulator counters summed over the round's cells.
	msgs, bytes, edgeCut, migrations int
	virtualS                         float64
}

func (st *roundStats) fail(ops int, err error) {
	st.failed += ops
	if st.err == nil {
		st.err = err
	}
}

func (st *roundStats) addResult(r *Result) {
	st.msgs += r.MessagesSent
	st.bytes += r.BytesSent
	st.edgeCut += r.EdgeCut
	st.migrations += r.Migrations
	st.virtualS += r.Elapsed
}

// instance is a workload after set-up. round runs one untraced round at the
// host's parallelism; serial runs the same work one cell or job at a time,
// and traced does that under the recorder, so the difference between the
// last two is the cost of tracing alone.
type instance interface {
	round(n int) roundStats
	serial(n int) roundStats
	traced(rec *recorder, n int) roundStats
}

type workloadDef struct {
	name, why string
	// op names the unit ops_per_s, op_p50_ms and cpu_ms_per_op count.
	op    string
	setup func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "sweep_small", op: "cell",
		why: "282 cells of 0.3-30 ms at 1-16 procs through RunSweep+WriteReport: per-cell set-up, balancing and encoding dominate, kernel scheduling does little",
		setup: func(e *env) (instance, error) {
			set := sweepSet
			if e.smoke {
				set = smokeSweepSet
			}
			return setupSweep(e, set)
		},
	},
	{
		name: "machine_sparse", op: "run",
		why:   "hex64-fine on 4096 ranks x 10 iterations under each kernel: ranks mostly spawn, meet barriers and park, so kernel start-up and rank state dominate",
		setup: func(e *env) (instance, error) { return setupMachine(e, sparseCell) },
	},
	{
		name: "machine_dense", op: "run",
		why:   "4096-node hex grid on 256 busy ranks x 20 iterations under each kernel: halo messages every iteration and metis at k=256, the opposite use of the kernels",
		setup: func(e *env) (instance, error) { return setupMachine(e, denseCell) },
	},
	{
		name: "daemon_cold", op: "job",
		why:   "closed-loop clients, cache off, J1-J5: every cell simulates, so queue, workers, stream and encode run on top of experiments and simulation",
		setup: func(e *env) (instance, error) { return setupDaemon(e, false) },
	},
	{
		name: "daemon_cached", op: "job",
		why:   "same loop, warmed cache, J1-J4: hit ratio exactly 1, simulation bypassed, so decode, CellKey, cache, encode, stream and HTTP are all that is left",
		setup: func(e *env) (instance, error) { return setupDaemon(e, true) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- sweep_small ----

type sweepInst struct {
	e    *env
	set  []sweepSpec
	scs  []Scenario
	axes []Axes
}

func setupSweep(e *env, set []sweepSpec) (*sweepInst, error) {
	s := &sweepInst{e: e, set: set}
	for _, sp := range set {
		sc, err := scenarioGet(sp.scenario)
		if err != nil {
			return nil, err
		}
		ax, err := parseAxes(sp.sweep)
		if err != nil {
			return nil, err
		}
		s.scs = append(s.scs, sc)
		s.axes = append(s.axes, ax)
	}
	setParallelism(e.nproc)
	if st := s.round(0); st.err != nil { // warm-up, and the first digest check
		return nil, st.err
	}
	return s, nil
}

// sweepOne runs one spec's sweep through run and checks its JSON report
// against the pinned digest.
func (s *sweepInst) sweepOne(i int, st *roundStats, run func(sc Scenario, ax Axes) (*SweepReport, error), encode func(*SweepReport) ([]byte, error)) {
	n := s.axes[i].Size()
	st.ops += n
	rep, err := run(s.scs[i], s.axes[i])
	if err != nil {
		st.fail(n, err)
		return
	}
	body, err := encode(rep)
	if err == nil {
		err = s.e.book.check("sweep_small/"+s.set[i].id, body)
	}
	if err != nil {
		st.fail(n, err)
		return
	}
	for i := range rep.Rows {
		st.addResult(&rep.Rows[i].Result)
	}
}

func encodeJSON(rep *SweepReport) ([]byte, error) {
	var buf bytes.Buffer
	err := writeReport(&buf, "json", rep)
	return buf.Bytes(), err
}

func (s *sweepInst) round(int) roundStats {
	var st roundStats
	t0, c0 := time.Now(), cpuTime()
	for i := range s.set {
		s.sweepOne(i, &st, runSweep, encodeJSON)
	}
	st.wall, st.cpu = time.Since(t0), cpuTime()-c0
	st.lat = []float64{ms(st.wall)}
	return st
}

func (s *sweepInst) serial(n int) roundStats {
	setParallelism(1)
	defer setParallelism(s.e.nproc)
	return s.round(n)
}

// traced runs the round one cell at a time. Per sweep: experiments.engine
// (RunSweepWith) holds one cell span and one bench.replica span per cell;
// experiments.encode follows.
func (s *sweepInst) traced(rec *recorder, n int) roundStats {
	var st roundStats
	setParallelism(1)
	defer setParallelism(s.e.nproc)
	t0, c0 := time.Now(), cpuTime()
	root := rec.begin(n, -1, "round")
	for i := range s.set {
		sweep := rec.begin(n, root, "sweep")
		s.sweepOne(i, &st,
			func(sc Scenario, ax Axes) (rep *SweepReport, err error) {
				rec.in(n, sweep, "experiments.engine", func(engine int) {
					rep, err = runSweepWith(sc, ax, func(sc Scenario, cell int, p Params) (*Result, error) {
						return tracedCell(rec, n<<20|i<<12|cell, engine, sc, p, "platform.run")
					})
				})
				return rep, err
			},
			func(rep *SweepReport) (body []byte, err error) {
				rec.in(n, sweep, "experiments.encode", func(int) { body, err = encodeJSON(rep) })
				return body, err
			})
		rec.end(sweep)
	}
	rec.end(root)
	st.wall, st.cpu = time.Since(t0), cpuTime()-c0
	st.lat = []float64{ms(st.wall)}
	return st
}

// tracedCell runs one cell the way Scenario.Run does, with a span around
// each public call, and assembles the same Result. The layers Config calls
// are then run once more on their own (the replica/ spans under
// bench.replica), which is how their share of scenario.config is known
// without timers inside the simulator. Replica time is the benchmark's, not
// the cell's: it lies outside the cell span.
func tracedCell(rec *recorder, trace, parent int, sc Scenario, p Params, runName string) (*Result, error) {
	cell := rec.begin(trace, parent, "cell")
	res, err := tracedRun(rec, trace, cell, sc, p, runName)
	rec.end(cell)
	if err != nil || sc.Runner != nil {
		return res, err
	}

	np := res.Params
	replica := rec.begin(trace, parent, "bench.replica")
	defer rec.end(replica)
	var g *Graph
	rec.in(trace, replica, "replica/graph.gen", func(int) { g, err = sc.Graph() })
	if err != nil {
		return nil, err
	}
	var net NetModel
	rec.in(trace, replica, "replica/netmodel.new", func(int) { net, err = netmodelNew(np.Network, np.Procs) })
	if err != nil {
		return nil, err
	}
	rec.in(trace, replica, "replica/partition."+np.Partitioner, func(int) { _, err = partitionOn(np.Partitioner, g, np.Procs, net) })
	if err != nil {
		return nil, err
	}
	if np.Perturb != "none" {
		rec.in(trace, replica, "replica/fault.wrap", func(int) {
			sched, perr := faultParse(np.Perturb)
			if err = perr; err == nil {
				_, err = faultWrap(net, sched, np.Procs, np.Iterations)
			}
		})
	}
	return res, err
}

// tracedRun is the body of the cell span: Scenario.Run's steps, one span
// each. A scenario with a custom runner (the BSP ones) has no platform
// configuration and runs as one bsp.run span.
func tracedRun(rec *recorder, trace, cell int, sc Scenario, p Params, runName string) (res *Result, err error) {
	if sc.Runner != nil {
		rec.in(trace, cell, "bsp.run", func(int) { res, err = sc.Run(p) })
		return res, err
	}
	np, err := sc.Normalize(p)
	if err != nil {
		return nil, err
	}
	var cfg *PlatformConfig
	rec.in(trace, cell, "scenario.config", func(int) { cfg, err = sc.Config(p) })
	if err != nil {
		return nil, err
	}
	var q Quality
	rec.in(trace, cell, "partition.evaluate", func(int) {
		q, err = partitionEvaluate(cfg.Graph, cfg.InitialPartition, np.Procs)
	})
	if err != nil {
		return nil, err
	}
	var pres *PlatformResult
	run := rec.begin(trace, cell, runName)
	pres, err = platformRun(*cfg)
	rec.end(run)
	if err != nil {
		return nil, err
	}
	res = &Result{
		Scenario: sc.Name, Params: np, Elapsed: pres.Elapsed,
		EdgeCut: q.EdgeCut, Imbalance: q.Imbalance, Migrations: pres.Migrations,
	}
	for _, s := range pres.Stats {
		res.MessagesSent += s.MessagesSent
		res.BytesSent += s.BytesSent
	}
	rec.count(run, "msgs", int64(res.MessagesSent))
	return res, nil
}

// ---- machine_sparse, machine_dense ----

type machineInst struct {
	e    *env
	cell machineCell
	sc   Scenario
}

func setupMachine(e *env, cell machineCell) (*machineInst, error) {
	sc, err := cell.sc()
	if err != nil {
		return nil, err
	}
	m := &machineInst{e: e, cell: cell, sc: sc}
	if st := m.round(0); st.err != nil {
		return nil, st.err
	}
	return m, nil
}

// order rotates the kernels by seed and round, so no kernel always runs
// first on a freshly collected heap.
func (m *machineInst) order(n int) []string {
	k := int((m.e.seed + int64(n)) % int64(len(kernels)))
	return append(append([]string(nil), kernels[k:]...), kernels[:k]...)
}

func (m *machineInst) runOne(st *roundStats, kernel string, run func(p Params) (*Result, error)) {
	p := m.cell.params
	p.Kernel = kernel
	st.ops++
	t0 := time.Now()
	res, err := run(p)
	st.lat = append(st.lat, ms(time.Since(t0)))
	if err == nil {
		// One pinned digest for all three kernels: a match is also the
		// cross-kernel equality check.
		err = m.e.book.check("machine_"+m.cell.name, resultBytes(res))
	}
	if err != nil {
		st.fail(1, fmt.Errorf("%s under %s: %w", m.cell.name, kernel, err))
		return
	}
	st.addResult(res)
}

func (m *machineInst) round(n int) roundStats {
	var st roundStats
	t0, c0 := time.Now(), cpuTime()
	for _, k := range m.order(n) {
		m.runOne(&st, k, m.sc.Run)
	}
	st.wall, st.cpu = time.Since(t0), cpuTime()-c0
	return st
}

func (m *machineInst) serial(n int) roundStats { return m.round(n) }

func (m *machineInst) traced(rec *recorder, n int) roundStats {
	var st roundStats
	t0, c0 := time.Now(), cpuTime()
	root := rec.begin(n, -1, "round")
	for i, k := range m.order(n) {
		m.runOne(&st, k, func(p Params) (*Result, error) {
			return tracedCell(rec, n<<20|i, root, m.sc, p, "platform.run."+k)
		})
	}
	rec.end(root)
	st.wall, st.cpu = time.Since(t0), cpuTime()-c0
	return st
}
