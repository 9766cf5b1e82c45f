package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/scenario"
)

// TestResolveAxesFlagPlumbing is the regression harness for the PR 8
// -kernel bug class: a shorthand flag that parses fine but never lands in
// its sweep axis. Every shorthand flag, alone and next to an unrelated
// -sweep clause, must resolve to exactly the axes the spelled-out clause of
// the same name resolves to (internal/experiments pins which Params field
// a clause reaches).
func TestResolveAxesFlagPlumbing(t *testing.T) {
	const values = "a, b ,c"
	landsLikeClause := func(t *testing.T, sweep, name string) {
		got, err := resolveAxes(sweep, map[string]string{name: values})
		if err != nil {
			t.Fatalf("resolveAxes(%q, -%s %q): %v", sweep, name, values, err)
		}
		want, err := experiments.ParseAxes(sweep + ";" + name + "=" + values)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s %q with -sweep %q resolved to %+v, the clause resolves to %+v", name, values, sweep, got, want)
		}
	}
	for _, name := range shorthandAxes {
		// Named after the Axes field: the capitalised plural of the axis.
		t.Run(fmt.Sprintf("%s flag lands in %s%ss", name, strings.ToUpper(name[:1]), name[1:]), func(t *testing.T) {
			landsLikeClause(t, "", name)
		})
	}
	t.Run("flags compose with an unrelated sweep axis", func(t *testing.T) {
		for _, name := range shorthandAxes {
			landsLikeClause(t, "procs=2,4", name)
		}
	})
}

// TestResolveAxesFlagConflicts asserts each shorthand flag refuses to
// coexist with its spelled-out sweep axis instead of silently dropping
// one of the two.
func TestResolveAxesFlagConflicts(t *testing.T) {
	for _, name := range shorthandAxes {
		_, err := resolveAxes(name+"=x", map[string]string{name: "y"})
		if err == nil || !strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), "set twice") {
			t.Errorf("-%s next to a %s= clause: got error %v, want one naming the flag and the double set", name, name, err)
		}
	}
}

// TestResolveAxesRefusesUncountableSweep: 65536 values on four axes are
// 2^64 cells, a product that wraps an int to 0; the sweep must be refused
// with an error before Cells tries to allocate it.
func TestResolveAxesRefusesUncountableSweep(t *testing.T) {
	axis := func(v string) string { return strings.Repeat(v+",", 1<<16-1) + v }
	_, err := resolveAxes("procs="+axis("1")+";iters="+axis("2")+";partitioner="+axis("bf"), map[string]string{"balancer": axis("none")})
	if err == nil || !strings.Contains(err.Error(), "more cells than") {
		t.Fatalf("got %v, want the sweep refused as uncountable", err)
	}
}

// TestCountFlagsRejectNegatives: -kernel-workers -3 and -parallel -2 used
// to be accepted and mean "default", and -checkpoint-every 0 to switch
// -checkpoint off; each must now fail at parse time with an error naming
// the flag, and still take its least value and larger counts.
func TestCountFlagsRejectNegatives(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		least, want int
		bad         bool
	}{
		{flag: "kernel-workers", value: "-3", bad: true},
		{flag: "parallel", value: "-2", bad: true},
		{flag: "kernel-workers", value: "0"},
		{flag: "parallel", value: "4", want: 4},
		{flag: "checkpoint-every", least: 1, value: "0", bad: true},
		{flag: "checkpoint-every", least: 1, value: "-1", bad: true},
		{flag: "checkpoint-every", least: 1, value: "1", want: 1},
	} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		n := experiments.CountFlag(fs, tc.flag, tc.least, "a count")
		err := fs.Parse([]string{"-" + tc.flag, tc.value})
		switch {
		case tc.bad && (err == nil || !strings.Contains(err.Error(), "-"+tc.flag)):
			t.Errorf("-%s %s: got error %v, want one naming the flag", tc.flag, tc.value, err)
		case !tc.bad && (err != nil || *n != tc.want):
			t.Errorf("-%s %s: got %d, %v, want %d", tc.flag, tc.value, *n, err, tc.want)
		}
	}
}

// TestKernelWorkersReachEveryRunMode is the same harness for the host-side
// knob that is not an axis: -kernel-workers must arrive in the
// scenario.Params of every cell under every mode that simulates. The
// scenario's Runner stands in for the simulation and records what it was
// handed.
func TestKernelWorkersReachEveryRunMode(t *testing.T) {
	const workers = 3
	dir := t.TempDir()
	cases := []struct {
		name  string
		sweep string
		mode  runMode
		cells int // cells the mode must run
	}{
		{name: "sweep", sweep: "procs=1,2,4,8;kernel=pevent", cells: 4},
		{name: "single run with -trace", sweep: "procs=4;kernel=pevent", mode: runMode{tracePath: filepath.Join(dir, "trace.jsonl")}, cells: 1},
		{name: "-shard", sweep: "procs=1,2,4,8;kernel=pevent", mode: runMode{shardSpec: "1/2", manifestPath: filepath.Join(dir, "manifest.json")}, cells: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := scenario.Get("heat")
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var got []int
			sc.Runner = func(sc scenario.Scenario, p scenario.Params) (*scenario.Result, error) {
				mu.Lock()
				defer mu.Unlock()
				got = append(got, p.KernelWorkers)
				return &scenario.Result{Scenario: sc.Name, Params: p}, nil
			}
			ax, err := resolveAxes(tc.sweep, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScenario(sc, tc.sweep, ax, tc.mode, cellRunner(sc, workers)); err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.cells {
				t.Fatalf("ran %d cells, want %d", len(got), tc.cells)
			}
			for i, w := range got {
				if w != workers {
					t.Errorf("cell %d ran with KernelWorkers = %d, want %d: the flag was dropped on the way", i, w, workers)
				}
			}
		})
	}
}

// TestNeedsScenario: a flag that acts on a -scenario sweep only is refused
// without -scenario instead of parsing and reaching nothing — -kernel-workers
// included, which `-run table3 -kernel-workers 4` used to accept and drop —
// and so is a flag nobody listed.
func TestNeedsScenario(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the flag the error must name; "" for no error
	}{
		{args: nil},
		{args: []string{"-run", "table3", "-format", "json", "-parallel", "2", "-cpuprofile", "c", "-memprofile", "m", "-list"}},
		{args: []string{"-scenario", ""}},
		{args: []string{"-kernel-workers", "4"}, want: "-kernel-workers"},
		{args: []string{"-kernel", "pevent"}, want: "-kernel"},
		{args: []string{"-sweep", "procs=2"}, want: "-sweep"},
		{args: []string{"-trace", "t.jsonl"}, want: "-trace"},
		{args: []string{"-resume", "s.ckpt"}, want: "-resume"},
		{args: []string{"-merge"}, want: "-merge"},
		{args: []string{"-run", "table3", "-a-flag-added-tomorrow", "x"}, want: "-a-flag-added-tomorrow"},
	} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		for _, name := range []string{"run", "format", "parallel", "cpuprofile", "memprofile", "scenario",
			"kernel-workers", "kernel", "sweep", "trace", "resume", "a-flag-added-tomorrow"} {
			fs.String(name, "", "")
		}
		fs.Bool("list", false, "")
		fs.Bool("merge", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := needsScenario(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused with %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" requires -scenario")):
			t.Errorf("%v: got error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

// TestCheckFlags: a value that parses and then fails only after every
// cell has run (-format, an output file in a directory that is not there,
// a bad value behind a good one on a sweep axis), or reaches nothing
// (-checkpoint-every without -checkpoint), is refused before the first
// cell. Each row goes the way main does — checkFlags, then runScenario —
// through a runner that counts its calls, and a refused row must leave the
// count at zero.
func TestCheckFlags(t *testing.T) {
	for _, format := range append(experiments.Formats(), "") { // "" is text, as in WriteReport
		if err := checkFlags(format, "", runMode{}); err != nil {
			t.Errorf("-format %q: refused with %v", format, err)
		}
	}
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "out")
	for _, tc := range []struct {
		name, format, memprofile string
		mode                     runMode
		sweep                    string // "" stops after checkFlags
		want                     string // what the error must start with; "" for no error
	}{
		{name: "-format bogus", format: "bogus", want: `-format: unknown format "bogus"`},
		{name: "-checkpoint-every alone", format: "json", mode: runMode{checkpointEvery: 3}, want: "-checkpoint-every requires -checkpoint"},
		{name: "-checkpoint-every with -checkpoint", format: "json", mode: runMode{checkpointEvery: 3, checkpointPath: "f.ckpt"}},
		{name: "-checkpoint alone", format: "json", mode: runMode{checkpointPath: "f.ckpt"}},
		{name: "a bad kernel behind a good one", sweep: "procs=2;iters=2;kernel=event,bogus", want: `scenario heat: mpi: unknown kernel "bogus"`},
		{name: "-memprofile into a missing directory", memprofile: missing, sweep: "procs=2;iters=2", want: "-memprofile " + missing},
		{name: "-trace into a missing directory", mode: runMode{tracePath: missing}, sweep: "procs=2;iters=2", want: "-trace " + missing},
		{name: "-trace to stdout", mode: runMode{tracePath: "-"}},
		{name: "-checkpoint into a missing directory", mode: runMode{checkpointPath: missing}, sweep: "procs=2;iters=2", want: "-checkpoint " + missing},
		{name: "-shard with its -manifest in a missing directory", mode: runMode{shardSpec: "1/1", manifestPath: missing}, sweep: "procs=2;iters=2", want: "-manifest " + missing},
		{name: "-merge reads its manifests", mode: runMode{merge: true, manifestPath: missing}},
		{name: "a sweep that runs", mode: runMode{tracePath: filepath.Join(dir, "t.jsonl")}, sweep: "procs=2;iters=2"},
	} {
		var calls atomic.Int32
		err := checkFlags(tc.format, tc.memprofile, tc.mode)
		if err == nil && tc.sweep != "" {
			ax, axErr := resolveAxes(tc.sweep, nil)
			if axErr != nil {
				t.Fatal(axErr)
			}
			_, err = runScenario(sc, tc.sweep, ax, tc.mode, func(sc scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
				calls.Add(1)
				return sc.Run(p)
			})
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused with %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: got error %v, want %q", tc.name, err, tc.want)
		case tc.want != "" && calls.Load() != 0:
			t.Errorf("%s: refused after %d cells had run", tc.name, calls.Load())
		}
	}
}

// TestCheckpointPeriodMustLeaveABoundary: a snapshot follows every
// period-th iteration except the last, so a period at or past the
// iteration count used to run the cell, exit 0 and write nothing. It is
// refused with both numbers named, nothing is written, and the largest
// period that does leave a boundary still writes its snapshot.
func TestCheckpointPeriodMustLeaveABoundary(t *testing.T) {
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	const sweep = "procs=2;iters=4"
	ax, err := resolveAxes(sweep, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		every int
		want  string // "" when the run must succeed and leave a snapshot
	}{
		{every: 3},
		{every: 4, want: "-checkpoint-every 4 writes no snapshot in a run of 4 iterations"},
		{every: 20, want: "-checkpoint-every 20 writes no snapshot in a run of 4 iterations"},
	} {
		path := filepath.Join(t.TempDir(), "f.ckpt")
		_, err := runScenario(sc, sweep, ax, runMode{checkpointPath: path, checkpointEvery: tc.every}, cellRunner(sc, 0))
		_, statErr := os.Stat(path)
		switch {
		case tc.want == "" && (err != nil || statErr != nil):
			t.Errorf("period %d: run %v, snapshot %v; want both fine", tc.every, err, statErr)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want) || statErr == nil):
			t.Errorf("period %d: got error %v (snapshot written: %v), want %q and no file", tc.every, err, statErr == nil, tc.want)
		}
	}
}

// TestResumeAcrossKernels: a snapshot holds no engine state and the three
// kernels produce the same bytes, so a snapshot taken under any kernel
// name resumes under any other — nine pairs — to the report of the
// uninterrupted run, the echoed kernel name aside. Any other difference in
// the cell key still refuses.
func TestResumeAcrossKernels(t *testing.T) {
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// report runs heat at procs processors for 8 iterations under kernel in
	// mode m and returns the JSON report with the kernel name blanked.
	report := func(procs, kernel string, m runMode) (string, error) {
		sweep := "procs=" + procs + ";iters=8;kernel=" + kernel
		ax, err := resolveAxes(sweep, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runScenario(sc, sweep, ax, m, cellRunner(sc, 0))
		if err != nil {
			return "", err
		}
		var b strings.Builder
		if err := experiments.WriteReport(&b, "json", rep); err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(b.String(), `"kernel": "`+kernel+`"`, `"kernel": ""`), nil
	}
	want, err := report("4", mpi.KernelNameGoroutine, runMode{})
	if err != nil {
		t.Fatal(err)
	}
	for _, taken := range mpi.KernelNames() {
		snap := filepath.Join(dir, taken+".ckpt")
		if got, err := report("4", taken, runMode{checkpointPath: snap, checkpointEvery: 3}); err != nil || got != want {
			t.Fatalf("snapshotting under %s: %v; report equal to the plain run's: %v", taken, err, got == want)
		}
		for _, resumed := range mpi.KernelNames() {
			if got, err := report("4", resumed, runMode{resumePath: snap}); err != nil || got != want {
				t.Errorf("snapshot under %s resumed under %s: %v; report equal to the uninterrupted run's: %v", taken, resumed, err, got == want)
			}
		}
	}
	_, err = report("8", mpi.KernelNameEvent, runMode{resumePath: filepath.Join(dir, mpi.KernelNameParallelEvent+".ckpt")})
	if err == nil || !strings.Contains(err.Error(), "refusing to resume a different run") {
		t.Errorf("snapshot of procs=4 resumed at procs=8: got error %v, want the refusal", err)
	}
}

// TestRetiredBufferModeRefused: a sweep that names buffers=unpooled fails
// in every mode before it simulates anything (main exits non-zero on the
// error), with the message that says the mode was retired.
func TestRetiredBufferModeRefused(t *testing.T) {
	sc, err := scenario.Get("hex32-fine")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const sweep = "procs=2;iters=2;buffers=unpooled"
	for name, mode := range map[string]runMode{
		"sweep":  {},
		"-trace": {tracePath: filepath.Join(dir, "trace.jsonl")},
		"-shard": {shardSpec: "1/1", manifestPath: filepath.Join(dir, "manifest.json")},
	} {
		ax, err := resolveAxes(sweep, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runScenario(sc, sweep, ax, mode, cellRunner(sc, 0))
		if err == nil || !strings.Contains(err.Error(), `buffer mode "unpooled" was retired`) {
			t.Errorf("%s: got error %v, want the retirement message", name, err)
		}
	}
}

// TestSingleRunReportsLikeTheSweep: a one-cell sweep reports the same
// bytes however it runs — plain, traced, checkpointed or resumed — at
// procs=1, where the cell is its own speedup baseline, and at procs=4.
func TestSingleRunReportsLikeTheSweep(t *testing.T) {
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []string{"1", "4"} {
		t.Run("procs="+procs, func(t *testing.T) {
			dir := t.TempDir()
			sweep := "procs=" + procs + ";iters=8"
			report := func(m runMode) string {
				ax, err := resolveAxes(sweep, nil)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := runScenario(sc, sweep, ax, m, cellRunner(sc, 0))
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				if err := experiments.WriteReport(&b, "json", rep); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			want := report(runMode{})
			snap := filepath.Join(dir, "heat.ckpt")
			for _, tc := range []struct {
				name string
				mode runMode
			}{
				{"-trace", runMode{tracePath: filepath.Join(dir, "heat.jsonl")}},
				{"-checkpoint", runMode{checkpointPath: snap, checkpointEvery: 3}},
				{"-resume", runMode{resumePath: snap}}, // the snapshot the row above wrote
			} {
				if got := report(tc.mode); got != want {
					t.Errorf("%s report differs from the plain sweep's\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
				}
			}
		})
	}
}

// TestShardSpellingsMerge: the cell keys are a sweep's identity, so shards
// run under two spellings of one sweep — its clauses reordered, and a
// -network flag for the network= clause — combine and merge to the
// unsharded sweep's bytes.
func TestShardSpellingsMerge(t *testing.T) {
	sc, err := scenario.Get("heat")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(sweep string, flags map[string]string, m runMode) *experiments.SweepReport {
		t.Helper()
		ax, err := resolveAxes(sweep, flags)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runScenario(sc, sweep, ax, m, cellRunner(sc, 0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	encode := func(rep *experiments.SweepReport) string {
		var b strings.Builder
		if err := experiments.WriteReport(&b, "json", rep); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := encode(run("procs=1,2;iters=3;network=mesh2d", nil, runMode{}))
	m1, m2 := filepath.Join(dir, "m1.json"), filepath.Join(dir, "m2.json")
	run("procs=1,2;iters=3;network=mesh2d", nil, runMode{shardSpec: "1/2", manifestPath: m1})
	run("iters=3;procs=1,2", map[string]string{"network": "mesh2d"}, runMode{shardSpec: "2/2", manifestPath: m2})
	if got := encode(run("", nil, runMode{merge: true, manifestPath: m1 + "," + m2})); got != want {
		t.Errorf("merge of two spellings differs from the unsharded sweep\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
