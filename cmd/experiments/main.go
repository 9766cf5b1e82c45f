// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 5) and runs parameter sweeps over registered
// scenarios, emitting text, JSON or CSV.
//
// Usage:
//
//	experiments                      # run every paper experiment, paper order
//	experiments -run table3,fig12    # selected paper experiments
//	experiments -list                # list experiment IDs, scenarios and sweep axes
//	experiments -scenario life       # sweep a scenario over 1..16 processors
//	experiments -scenario hex64-fine -sweep "procs=1,2,4,8;partitioner=metis,pagrid"
//	experiments -scenario hex64-fine -sweep "procs=1,2,4,8,16" -network hypercube,mesh2d
//	experiments -scenario hex64-fine -sweep "procs=8;balancer=none,centralized" -perturb none,brownout
//	experiments -scenario hex64-coarse -sweep "procs=8" -balancer worksteal,hierarchical,predictive -perturb brownout,ramp
//	experiments -scenario hex64-fine -sweep "procs=4096" -kernel event
//	experiments -scenario hex64-fine -sweep "procs=4096" -kernel pevent -kernel-workers 4
//	experiments -scenario hex64-fine -sweep "procs=4096" -kernel pevent -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -scenario heat -format json > heat.json
//	experiments -scenario heat -sweep "procs=4" -trace heat.jsonl
//	experiments -scenario heat -sweep "procs=4" -checkpoint heat.ckpt
//	experiments -scenario heat -sweep "procs=4" -resume heat.ckpt
//	experiments -scenario heat -sweep "procs=1,2,4" -shard 1/4 -manifest m1.json
//	experiments -scenario heat -sweep "procs=1,2,4" -merge -manifest m1.json,m2.json,m3.json,m4.json
//
// The -sweep specification is semicolon-separated axis=value,value pairs;
// -list prints the axis names and docs/scenarios.md tabulates the values
// each accepts. Unspecified axes stay at the scenario's default, and an
// axis takes its values once. -balancer, -network, -perturb and -kernel
// are shorthand for the sweep clauses of the same names.
// -kernel-workers sets the goroutine and pevent kernels' worker count (0
// means min(GOMAXPROCS, procs); event always runs one); it is a host-side
// tuning knob — output bytes are identical at any value — and, like
// -kernel, needs -scenario: the paper experiments run the default kernel.
//
// Sweep runs — those of -scenario and those behind the paper's tables and
// figures alike — execute concurrently on -parallel workers (default:
// number of CPUs). Output order — and output bytes — are independent of
// the setting; -parallel 1 only serves to measure the speedup.
//
// -cpuprofile and -memprofile write pprof profiles of the invocation
// (the CPU profile covers the experiment/sweep execution; the heap
// profile is written after it completes), for profiling the simulator's
// host-side cost, e.g. comparing kernels on a large sweep.
//
// -trace records per-iteration telemetry (compute/communicate/idle time
// per processor, message counters, migrations, load imbalance, live
// edge-cut; see internal/trace) of one run to a file: JSONL, or CSV when
// the path ends in .csv, or JSONL on stdout for "-". It requires
// -scenario with at most one value per sweep axis.
//
// -checkpoint writes a versioned snapshot of one run's complete state to
// a file at every fault-epoch boundary (every -checkpoint-every
// iterations, a period that must be below the run's iteration count: no
// snapshot follows the last iteration); -resume restores a run from such
// a snapshot and replays only the remaining iterations, producing output
// byte-identical to the uninterrupted run. Snapshots carry the run's cell
// key, and -resume refuses a snapshot taken under different parameters —
// except the kernel: a snapshot holds no engine state, so one taken under
// any -kernel resumes under any other.
// Both require -scenario with at most one value per sweep axis.
//
// -shard i/n runs the i-th of n contiguous chunks of a sweep,
// coordinated through the -manifest file: the manifest lists every cell
// with its key, owning shard and completion state, is created on first
// use and updated as cells finish, and re-running the same command
// resumes the shard, executing only its remaining cells. -merge reads
// one or more completed manifests (comma-separated), combines them, and
// emits the exact report — byte-identical in every format — that the
// unsharded sweep would have produced. See docs/sharding.md.
//
// All results are deterministic virtual times: the same invocation
// produces byte-identical output on any host, so JSON sweeps are directly
// comparable across commits (CI archives one as a workflow artifact).
// See docs/scenarios.md for a cookbook.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/shard"
	"ic2mpi/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	run := flag.String("run", "", "paper experiment IDs, comma-separated (e.g. table7,fig12); empty runs all")
	list := flag.Bool("list", false, "list experiment IDs and registered scenarios, then exit")
	scen := flag.String("scenario", "", "registered scenario to sweep (see -list)")
	sweep := flag.String("sweep", "", `sweep axes, e.g. "procs=1,2,4;partitioner=metis,pagrid;exchange=basic,overlap"`)
	axisFlags := make(map[string]string) // the shorthand axis flags given, name → value
	for _, name := range shorthandAxes {
		flag.Func(name, fmt.Sprintf(`values of the %s sweep axis, comma-separated (shorthand for a "%s=" -sweep clause)`, name, name),
			func(v string) error { axisFlags[name] = v; return nil })
	}
	kernelWorkers := experiments.CountFlag(flag.CommandLine, "kernel-workers", 0, "worker `count` for the goroutine and pevent kernels; 0 means min(GOMAXPROCS, procs); output bytes are identical at any value")
	parallel := experiments.CountFlag(flag.CommandLine, "parallel", 0, "`count` of concurrent sweep runs; 0 means number of CPUs")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile, taken after the run completes, to this file")
	format := flag.String("format", "text", "output format: text, json or csv")
	var mode runMode
	flag.StringVar(&mode.tracePath, "trace", "", `write a per-iteration trace of one -scenario run: JSONL, CSV when the path ends in .csv, or "-" for JSONL on stdout`)
	flag.StringVar(&mode.checkpointPath, "checkpoint", "", "write an epoch-boundary snapshot of one -scenario run to this file (see -checkpoint-every)")
	checkpointEvery := experiments.CountFlag(flag.CommandLine, "checkpoint-every", 1, "snapshot period of -checkpoint in `iterations` (default 1); must be below the run's iteration count")
	flag.StringVar(&mode.resumePath, "resume", "", "restore one -scenario run from a -checkpoint snapshot file and replay the remaining iterations")
	flag.StringVar(&mode.shardSpec, "shard", "", `run one contiguous chunk of the sweep: "i/n" (1-based shard i of n), coordinated through -manifest`)
	flag.StringVar(&mode.manifestPath, "manifest", "", "sharded-sweep manifest file (-shard), or comma-separated completed manifests (-merge)")
	flag.BoolVar(&mode.merge, "merge", false, "combine the completed -manifest file(s) into the sweep report an unsharded run would produce")
	flag.Parse()
	mode.checkpointEvery = *checkpointEvery
	if err := checkFlags(*format, *memprofile, mode); err != nil {
		log.Fatal(err)
	}
	experiments.Parallelism = *parallel

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *list {
		fmt.Println("paper experiments (-run):")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
		fmt.Println("\nscenarios (-scenario):")
		for _, line := range strings.Split(strings.TrimRight(experiments.ScenarioList(), "\n"), "\n") {
			fmt.Println("  " + line)
		}
		fmt.Println("\nsweep axes (-sweep; docs/scenarios.md tabulates their values):")
		fmt.Println("  " + strings.Join(experiments.AxisNames(), ", "))
		return
	}

	var reports []experiments.Report
	switch {
	case *scen != "":
		if *run != "" {
			log.Fatal("-run and -scenario are mutually exclusive")
		}
		sc, err := scenario.Get(*scen)
		if err != nil {
			log.Fatal(err)
		}
		ax, err := resolveAxes(*sweep, axisFlags)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := runScenario(sc, *sweep, ax, mode, cellRunner(sc, *kernelWorkers))
		if err != nil {
			log.Fatal(err)
		}
		if rep == nil {
			return // the mode wrote its own output (trace on stdout, shard manifest)
		}
		reports = append(reports, rep)
	default:
		if err := needsScenario(flag.CommandLine); err != nil {
			log.Fatal(err)
		}
		ids := experiments.IDs()
		if *run != "" {
			ids = strings.Split(*run, ",")
		}
		for _, id := range ids {
			rep, err := experiments.Run(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			if *format == "" || *format == "text" {
				// Stream text reports as they complete — a full paper
				// regeneration takes minutes and should show progress.
				if err := experiments.WriteReport(os.Stdout, *format, rep); err != nil {
					log.Fatal(err)
				}
				continue
			}
			reports = append(reports, rep)
		}
		if *format == "" || *format == "text" {
			return
		}
	}
	if err := experiments.WriteReport(os.Stdout, *format, reports...); err != nil {
		log.Fatal(err)
	}
}

// paperFlags are the flags that act on the paper experiments; every other
// flag acts on a -scenario sweep only.
var paperFlags = []string{"run", "list", "format", "parallel", "cpuprofile", "memprofile"}

// needsScenario refuses, naming it, a flag that was set and acts on a
// -scenario sweep only: without -scenario it would parse and then reach
// nothing. What is refused is every flag not in paperFlags, so a new
// scenario flag is refused without being listed anywhere.
func needsScenario(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "scenario" && !slices.Contains(paperFlags, f.Name) {
			err = fmt.Errorf("-%s requires -scenario (see -list for scenario names)", f.Name)
		}
	})
	return err
}

// checkFlags refuses, before anything runs, the flag values that parse
// and would otherwise fail only after every cell has been simulated
// (-format, an output file in a directory that does not exist) or reach
// nothing (-checkpoint-every without -checkpoint).
func checkFlags(format, memprofile string, m runMode) error {
	if format != "" && !slices.Contains(experiments.Formats(), format) {
		return fmt.Errorf("-format: unknown format %q (known: %v)", format, experiments.Formats())
	}
	if m.checkpointEvery != 0 && m.checkpointPath == "" {
		return errors.New("-checkpoint-every requires -checkpoint (the file the snapshots are written to)")
	}
	type output struct{ flag, path string }
	outputs := []output{{"-memprofile", memprofile}, {"-trace", m.tracePath}, {"-checkpoint", m.checkpointPath}}
	if m.shardSpec != "" { // under -merge the manifests are inputs
		outputs = append(outputs, output{"-manifest", m.manifestPath})
	}
	for _, out := range outputs {
		if out.path == "" || out.path == "-" {
			continue
		}
		dir := filepath.Dir(out.path)
		if fi, err := os.Stat(dir); err != nil {
			return fmt.Errorf("%s %s: %w", out.flag, out.path, err)
		} else if !fi.IsDir() {
			return fmt.Errorf("%s %s: %s is not a directory", out.flag, out.path, dir)
		}
	}
	return nil
}

// shorthandAxes are the sweep axes that also have a flag of their own name.
var shorthandAxes = []string{"balancer", "network", "perturb", "kernel"}

// resolveAxes parses the -sweep specification and lands every shorthand
// flag given (name → value) in its axis through the same Axes.Set a sweep
// clause goes through: a flag cannot parse and then miss its axis, and
// naming an axis by flag and by clause is refused like naming it twice.
func resolveAxes(sweep string, axisFlags map[string]string) (experiments.Axes, error) {
	ax, err := experiments.ParseAxes(sweep)
	if err != nil {
		return ax, err
	}
	for _, name := range shorthandAxes {
		if v, given := axisFlags[name]; given {
			if err := ax.Set(name, v); err != nil {
				return ax, fmt.Errorf("-%s: %w", name, err)
			}
		}
	}
	if ax.Size() == math.MaxInt {
		return ax, errors.New("sweep has more cells than an int can count")
	}
	return ax, nil
}

// runMode carries the flags that pick how a -scenario invocation runs:
// the whole sweep (all zero), one traced, checkpointed or resumed run, one
// shard of the sweep, or the merge of completed shards.
type runMode struct {
	tracePath       string
	checkpointPath  string
	checkpointEvery int // 0: not given, every iteration
	resumePath      string
	shardSpec       string
	manifestPath    string
	merge           bool
}

// cellRunner returns the runner every simulating mode executes sc's cells
// through, so a host-side knob applied here reaches all of them. The cells
// share one memo of their inputs (scenario.Inputs).
func cellRunner(sc scenario.Scenario, kernelWorkers int) experiments.CellRunner {
	in := scenario.NewInputs(sc)
	return func(_ scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
		p.KernelWorkers = kernelWorkers
		return in.Run(p)
	}
}

// runScenario executes sc over ax in the mode m selects. A nil report
// means the mode wrote its own output and there is nothing to print.
func runScenario(sc scenario.Scenario, sweep string, ax experiments.Axes, m runMode, run experiments.CellRunner) (*experiments.SweepReport, error) {
	single := m.tracePath != "" || m.checkpointPath != "" || m.resumePath != ""
	switch {
	case m.merge:
		if m.shardSpec != "" || single {
			return nil, fmt.Errorf("-merge is mutually exclusive with -shard, -trace, -checkpoint and -resume")
		}
		return mergeManifests(sc, m.manifestPath)
	case m.shardSpec != "":
		if single {
			return nil, fmt.Errorf("-shard is mutually exclusive with -trace, -checkpoint and -resume")
		}
		// Progress goes to stderr; -merge emits the report.
		return nil, runShard(sc, sweep, ax, m.shardSpec, m.manifestPath, run)
	case m.manifestPath != "":
		return nil, fmt.Errorf("-manifest requires -shard or -merge")
	case single:
		return runSingle(sc, ax, m, run)
	default:
		return experiments.RunSweepWith(sc, ax, run)
	}
}

// runSingle runs the one-cell sweep of ax (Axes.One) through
// RunSweepWith, its cell with any of tracing, checkpointing and
// snapshot-resume attached, and returns the one-row report — the bytes
// the plain sweep reports — or nil when the trace went to stdout and no
// report should be printed.
func runSingle(sc scenario.Scenario, ax experiments.Axes, m runMode, run experiments.CellRunner) (*experiments.SweepReport, error) {
	one, err := ax.One()
	if err != nil {
		return nil, err
	}
	p := one.Cells()[0]
	key, err := experiments.CellKey(sc, p)
	if err != nil {
		return nil, err
	}
	if m.resumePath != "" {
		data, err := os.ReadFile(m.resumePath)
		if err != nil {
			return nil, err
		}
		meta, snap, err := checkpoint.Decode(data)
		if err != nil {
			return nil, err
		}
		if !sameRun(sc, p, meta.CellKey) {
			return nil, fmt.Errorf("snapshot %s was taken for run\n  %s\nbut this invocation selects\n  %s\nrefusing to resume a different run", m.resumePath, meta.CellKey, key)
		}
		p.ResumeFrom = snap
		log.Printf("resuming %s from %s at iteration %d of %d", sc.Name, m.resumePath, snap.Iter, snap.Iterations)
	}
	if m.checkpointPath != "" {
		p.CheckpointEvery = max(m.checkpointEvery, 1)
		// A snapshot is taken after every CheckpointEvery-th iteration but
		// the last, so a period that reaches the end would run to
		// completion, exit 0 and leave no file.
		np, err := sc.Normalize(p)
		if err != nil {
			return nil, err
		}
		if p.CheckpointEvery >= np.Iterations {
			return nil, fmt.Errorf("-checkpoint-every %d writes no snapshot in a run of %d iterations: the period must be below the iteration count", p.CheckpointEvery, np.Iterations)
		}
		p.CheckpointSink = func(s *platform.RunSnapshot) error {
			data, err := checkpoint.Encode(checkpoint.Meta{CellKey: key}, s)
			if err != nil {
				return err
			}
			return experiments.WriteFileAtomic(m.checkpointPath, data)
		}
	}
	var rec *trace.Recorder
	if m.tracePath != "" {
		rec = &trace.Recorder{}
		p.Trace = rec
	}
	// p is the sweep's one cell with its attachments.
	rep, err := experiments.RunSweepWith(sc, one, func(sc scenario.Scenario, i int, _ scenario.Params) (*scenario.Result, error) {
		return run(sc, i, p)
	})
	if err != nil {
		return nil, err
	}
	if m.tracePath != "" {
		if err := writeTrace(m.tracePath, rec); err != nil {
			return nil, err
		}
		if m.tracePath == "-" {
			return nil, nil
		}
	}
	return rep, nil
}

// sameRun reports whether snapKey, the cell key a snapshot carries, is the
// key of the run p selects under some kernel name: a snapshot holds no
// engine state and the kernels produce the same bytes, so one taken under
// pevent resumes under event or goroutine. Every other difference refuses.
func sameRun(sc scenario.Scenario, p scenario.Params, snapKey string) bool {
	for _, kernel := range mpi.KernelNames() {
		p.Kernel = kernel
		if key, err := experiments.CellKey(sc, p); err == nil && key == snapKey {
			return true
		}
	}
	return false
}

// runShard executes one shard of the sweep, coordinated through the
// manifest file: created on first use, loaded and verified against the
// requested sweep otherwise, and rewritten after the shard's remaining
// cells complete.
func runShard(sc scenario.Scenario, spec string, ax experiments.Axes, shardSpec, manifestPath string, run experiments.CellRunner) error {
	if manifestPath == "" {
		return fmt.Errorf("-shard requires -manifest (the file coordinating the sharded sweep)")
	}
	index, shards, err := shard.ParseShardSpec(shardSpec)
	if err != nil {
		return err
	}
	fresh, err := shard.New(sc, spec, ax, shards)
	if err != nil {
		return err
	}
	m := fresh
	if data, err := os.ReadFile(manifestPath); err == nil {
		if m, err = shard.Parse(data); err != nil {
			return fmt.Errorf("%s: %w", manifestPath, err)
		}
		// The manifest must track the cells this invocation names, so a
		// stale or foreign manifest cannot silently absorb this shard's
		// work; how the sweep was spelled does not matter.
		if err := m.SameSweep(fresh); err != nil {
			return fmt.Errorf("%s tracks a different sweep than this invocation: %w", manifestPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	before := len(m.Remaining(index))
	if err := m.RunShardWith(sc, index, run); err != nil {
		return err
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if err := experiments.WriteFileAtomic(manifestPath, data); err != nil {
		return err
	}
	log.Printf("shard %d/%d: ran %d cells; %s", index+1, shards, before, m.Summary())
	return nil
}

// mergeManifests combines the comma-separated completed manifest files
// and assembles the unsharded sweep report.
func mergeManifests(sc scenario.Scenario, manifestPath string) (*experiments.SweepReport, error) {
	if manifestPath == "" {
		return nil, fmt.Errorf("-merge requires -manifest (one or more comma-separated manifest files)")
	}
	var ms []*shard.Manifest
	for _, path := range strings.Split(manifestPath, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m, err := shard.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ms = append(ms, m)
	}
	m, err := shard.Combine(ms...)
	if err != nil {
		return nil, err
	}
	return m.Merge(sc)
}

// writeTrace encodes rec to path: JSONL by default, CSV when the path
// ends in .csv, stdout when path is "-".
func writeTrace(path string, rec *trace.Recorder) error {
	format := "jsonl"
	if strings.HasSuffix(path, ".csv") {
		format = "csv"
	}
	if path == "-" {
		return trace.Write(os.Stdout, format, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, format, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
