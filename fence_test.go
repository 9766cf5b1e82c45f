package ic2mpi_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// TestSimulationNeverImportsTime is the determinism contract's fence,
// stated once: no non-test file of a simulation package — everything under
// internal/ except the daemon in internal/server, plus the facade — imports
// "time", so no result, stat or trace byte can come from the host's clock.
func TestSimulationNeverImportsTime(t *testing.T) {
	files := []string{"ic2mpi.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == filepath.Join("internal", "server") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time: simulation code must not be able to read the host's clock", path)
			}
		}
	}
}

// deletedNames lists, one row per mechanism, names a change deleted on
// purpose, and what stays deleted with them and why (reason). pattern is
// a regular expression matched against each line of the files that paths,
// include, exclude and excludeDir select, as grep would: a directory is
// searched recursively and the three globs match base names. lines is how
// many lines may match: none, except where a row holds a mechanism to its
// one call site.
var deletedNames = []struct {
	name, reason, pattern        string
	paths                        []string
	include, exclude, excludeDir string
	lines                        int
}{
	{
		name:    "one link-cost form",
		reason:  "the P×P matrices and the switch between forms stay deleted",
		pattern: `LinkCost|CostFn|MatrixFreeThreshold`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:       "one exchange path",
		reason:     "the allocate-per-round exchange and the knob that selected it stay deleted; bench/bench_test.go bans the same words for the benchmark",
		pattern:    `ReuseBuffers|BuffersUnpooled`,
		paths:      []string{"."},
		include:    "*.go",
		excludeDir: "bench",
	},
	{
		name:    "no bound on running ahead",
		reason:  "the event engine's window limit and the model method that fed it stay deleted",
		pattern: `MinDelay|lookahead`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "no clock in the scheduler",
		reason:  "the event engine runs ranks in wake order; the (time, rank, seq) heap and its ordering stay deleted",
		pattern: `eventQueue|eventLess`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one diffusion pass, one balancer registry",
		reason:  "the relative-load matrix, the per-balancer constructors and the pair cap nothing could set stay deleted",
		pattern: `RelativeLoads\(pg|NewWorkStealing\(|NewCentralized\(|NewDiffusion\(|NewHierarchical\(|NewPredictive\(|MaxPairs`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "no Comm call that can see the host",
		reason:  "Probe, the Send alias, Fail, the reductions nothing called and the uniform-model pricing fork stay deleted",
		pattern: `func \(c \*Comm\) (Probe|Send|Fail|ReduceFloat64|AllreduceFloat64|AllreduceMaxFloat64|AllreduceSumInt)\(|flatLatency|flatByteTime|MaxUserTag`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one clock, one receive",
		reason:  "the wall-clock mode, the request type that only recorded (src, tag) and the single-cell runner that re-derived its cell stay deleted; a comment may still say MPI_Irecv",
		pattern: `RealClock|\bVirtualClock\b|ClockMode|\.Irecv\(|RunTraced`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "calibration constants are constants",
		reason:  "the overhead model, the balancer thresholds and tolerances, the brownout windows and the code that defaulted, validated and exposed them stay deleted",
		pattern: `OverheadModel|DefaultOverheads|ValidatingBalancer|checkFraction|orDefault\(|chooseRanks|BrownedOut|New(Centralized|Diffusion|WorkStealing|Hierarchical|Predictive)Balancer`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one engine",
		reason:  "every kernel name runs the run-queue scheduler; the goroutine-per-rank engine's mailboxes and cond barrier stay deleted",
		pattern: `type mailbox|type barrier struct|newMailbox|newBarrier|\.boxes\b`,
		paths:   []string{"internal/mpi/*.go"},
	},
	{
		name:    "the engine shares nothing inside a window",
		reason:  "barrier arrivals and rank failures settle at the fold; the barrier mutex, the deferred-wake list, the mid-window fail wake and the atomic fail flag stay deleted",
		pattern: `barMu|pendingBarWakes|failWake|failFlag|setFail`,
		paths:   []string{"internal/mpi/*.go"},
	},
	{
		name:    "node data is immutable, one closed codec",
		reason:  "the snapshot-boundary deep copy and the reflect-keyed codec registry stay deleted; internal/checkpoint's type switch decides what a snapshot carries",
		pattern: `CloneData|RegisterData|DataCodec|codecByType|codecByName`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one seed search",
		reason:  "Multilevel's full BFS from every assigned vertex per seed stays deleted; the old search lives on only as the differential test's reference",
		pattern: `farthestUnassigned`,
		paths:   []string{"."},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:    "no node map on a rank",
		reason:  "an entry points back at its own-node record; the map over a rank's nodes stays deleted",
		pattern: `byID`,
		paths:   []string{"internal/platform"},
		include: "*.go",
	},
	{
		name:    "one post-migration update",
		reason:  "after a round a touched rank edits only the moved nodes' lists, counts and plans (localUpdate); the full rebuild lives on only as the reference its tests compare with",
		pattern: `reclassifyAll`,
		paths:   []string{"internal/platform"},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:    "no hash look-up on the exchange path",
		reason:  "rounds execute the receive and send plans planExchange builds once per partition epoch",
		pattern: `Lookup`,
		paths:   []string{"internal/platform/compute.go"},
	},
	{
		name:    "one start-up path",
		reason:  "Run builds every rank, fresh or resumed, before the ranks launch; the per-rank constructors live on only as the builder's test reference",
		pattern: `newRankState|emptyRankState|restoreRankState`,
		paths:   []string{"."},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:    "one carrier factory",
		reason:  "rank coroutines outlive their run in the carrier pool; runWindow starts the carriers the pool cannot supply at the one iter.Pull call site, so a coroutine per rank per run cannot come back",
		pattern: `iter\.Pull2?[[(]`,
		paths:   []string{"internal/mpi"},
		include: "*.go",
		exclude: "*_test.go",
		lines:   1,
	},
	{
		name:       "one never-blocking declaration",
		reason:     "platform.Run alone declares which ranks never block, those that hold no node in a run that neither balances nor gathers; no flag, spec field, environment variable or Host, Params or Config field reaches mpi.Options.NeverBlocks",
		pattern:    `NeverBlocks`,
		paths:      []string{"."},
		include:    "*.go",
		exclude:    "*_test.go",
		excludeDir: "mpi",
		lines:      1,
	},
	{
		name:    "one copy of a traced run",
		reason:  "the recorder releases its own canonical lines; the Sink interface, the daemon's second trace buffer and the per-line encoders only it used stay deleted",
		pattern: `trace\.Sink|SetSink|newTraceSink|ImbalanceOf|SampleLine\(|MigrationLine\(|SeriesLine\(`,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one check per resume rule",
		reason:  "checkpoint.Decode checks only the wire; platform.Run checks a snapshot's structure, so the structural checks and the stats copy stay out of the codec",
		pattern: `strictly ascending|history not ascending|rank records for|labeled rank|func mpiStats`,
		paths:   []string{"internal/checkpoint/checkpoint.go"},
	},
	{
		name:    "one report assembly, one sweep identity",
		reason:  "every single-cell run reports through RunSweepWith, a traced daemon job holds its trace once, in its stream, and manifests match by cell keys, never by their spec string",
		pattern: `NewSweepReport|traceJSONL|m\.Spec != `,
		paths:   []string{"."},
		include: "*.go",
	},
	{
		name:    "one store per message",
		reason:  "a message waits only in its receiver's queue, or a window in its sender's worker's outbox; the per-worker message slab, its free list and its alloc/release, the worker-pair lanes and the send clock the receiver priced from stay deleted",
		pattern: `pw\.(slab|free)\b|\.lanes\b|\bsentAt\b|func \(pw \*peWorker\) (alloc|release)\(`,
		paths:   []string{"internal/mpi"},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:       "one JSON indenter",
		reason:     "every indented document is json.Marshal's bytes through experiments.AppendIndent, so encoding/json's re-scanning indenters stay out of the program; the benchmark keeps its own",
		pattern:    `SetIndent\(|MarshalIndent\(|json\.Indent\(`,
		paths:      []string{"."},
		include:    "*.go",
		exclude:    "*_test.go",
		excludeDir: "bench",
	},
	{
		name:    "a layout holds no run's values",
		reason:  "every run of a partition shares its platform.Layout, so node data, observed costs, send buffers and pointers into a run's entries stay out of the layout's types (Layout, rankLayout, ownNode, peer, HashTable)",
		pattern: `NodeData|lastCost|shadowUpdate|\*entry\b|\bpools?\b|\bents\b`,
		paths:   []string{"internal/platform/layout.go", "internal/platform/hashtable.go"},
	},
	{
		name:    "graph and partition checked where their layout is built",
		reason:  "a run's graph and initial partition are checked once, in NewLayout, not again by every run that shares the layout; the third line is validateResume's check of a snapshot's own owner map",
		pattern: `\.Validate\(\)|partition\.Validate\(`,
		paths:   []string{"internal/platform"},
		include: "*.go",
		exclude: "*_test.go",
		lines:   3,
	},
	{
		name:    "one memo per scenario in the daemon",
		reason:  "a scenario's jobs share the server's memo of its inputs, made only in inputsOf, so a per-job memo that rebuilds every graph and partition cannot come back",
		pattern: `scenario\.NewInputs\(`,
		paths:   []string{"internal/server"},
		include: "*.go",
		exclude: "*_test.go",
		lines:   1,
	},
	{
		name:    "one stop signal",
		reason:  "a cancel or a drain deadline closes the job's stop channel, which every rank reads at its iteration boundary, so the cap on a cell's rank-iterations, the cancel flag polled between cells and the drain-timeout abandon path stay deleted",
		pattern: `maxCellWork|drainTimeoutPrefix|errCancelled|cancel\s+atomic\.Bool`,
		paths:   []string{"internal", "cmd"},
		include: "*.go",
	},
	{
		name:    "host-only fields declared once, in platform.Host",
		reason:  "the worker count, trace recorder, checkpoint period and sink, resume snapshot and stop channel are the six fields of platform.Host, which Config and scenario.Params embed, so no layer declares them again beside it; the seventh line is mpi.Options.Stop, the engine's own option that Host.Stop is handed to",
		pattern: `^\s*(\w+\s*,\s*)*(KernelWorkers|CheckpointEvery|CheckpointSink|ResumeFrom)(\s*,\s*\w+)*\s+[][*A-Za-z(]|^\s*Trace\s+\*(trace\.)?Recorder\b|^\s*Stop\s+<-chan\b`,
		paths:   []string{"."},
		include: "*.go",
		lines:   7,
	},
	{
		name:    "node values held as their own type",
		reason:  "a run holds every value as its node function's type (platform.Node), so a shipped node function over NodeData itself, which would box every update again, stays out of the program; tests may still run a mixed-type program over NodeData",
		pattern: `(Node|Neighbor)\[(platform\.|ic2mpi\.)?NodeData\]`,
		paths:   []string{"internal", "cmd", "examples", "ic2mpi.go"},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:    "balancing gathers peer lists",
		reason:  "a rank sends rank 0 its owned count and its peers as (proc, count) pairs through Gather, charged as the dense row of P+1 ints, so the dense per-rank row and the typed gather that carried it stay deleted",
		pattern: `\bsendRow\b|\bGatherInts\b`,
		paths:   []string{"."},
		include: "*.go",
		exclude: "*_test.go",
	},
	{
		name:    "examples are built on the facade",
		reason:  "Go refuses an internal import from outside this module, so an example, which a user copies, imports ic2mpi and the standard library only; its tests may import the scenario registry to tie it to its scenario",
		pattern: `"ic2mpi/internal`,
		paths:   []string{"examples"},
		include: "*.go",
		exclude: "*_test.go",
	},
}

// TestDeletedNamesStayDeleted enforces deletedNames. This file, which
// spells every pattern, and hidden directories (.git, the benchmark's
// build cache) are not searched. A row's regular expression runs only on
// lines that contain one of the literals every match of it contains.
func TestDeletedNamesStayDeleted(t *testing.T) {
	read := map[string][]string{} // each fenced file's lines, read once for every row
	for _, row := range deletedNames {
		t.Run(row.name, func(t *testing.T) {
			re := regexp.MustCompile(row.pattern)
			lits := requiredLiterals(t, row.pattern)
			var hits []string
			for _, path := range fencedFiles(t, row.paths, row.include, row.exclude, row.excludeDir) {
				lines, ok := read[path]
				if !ok {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					lines = strings.Split(string(data), "\n")
					read[path] = lines
				}
				for i, line := range lines {
					if (lits == nil || slices.ContainsFunc(lits, func(l string) bool { return strings.Contains(line, l) })) && re.MatchString(line) {
						hits = append(hits, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
					}
				}
			}
			if len(hits) != row.lines {
				t.Errorf("%q: %d lines match, want %d (%s):\n%s", row.name, len(hits), row.lines, row.reason, strings.Join(hits, "\n"))
			}
		})
	}
}

// requiredLiterals returns strings one of which every match of pattern
// contains, or nil when none can be derived. A literal requires itself, a
// concatenation what its best child requires (the set whose shortest
// string is longest), and an alternation the union of what its branches
// require; anything else, and a case-folded literal, requires nothing
// that can be named.
func requiredLiterals(t *testing.T, pattern string) []string {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	shortest := func(lits []string) int {
		return len(slices.MinFunc(lits, func(a, b string) int { return len(a) - len(b) }))
	}
	var of func(re *syntax.Regexp) []string
	of = func(re *syntax.Regexp) []string {
		switch re.Op {
		case syntax.OpLiteral:
			if re.Flags&syntax.FoldCase == 0 {
				return []string{string(re.Rune)}
			}
		case syntax.OpConcat:
			var best []string
			for _, sub := range re.Sub {
				if lits := of(sub); lits != nil && (best == nil || shortest(lits) > shortest(best)) {
					best = lits
				}
			}
			return best
		case syntax.OpAlternate:
			var union []string
			for _, sub := range re.Sub {
				lits := of(sub)
				if lits == nil {
					return nil
				}
				union = append(union, lits...)
			}
			return union
		}
		return nil
	}
	return of(re)
}

// TestRequiredLiterals pins the pre-check's derivation on the shapes the
// fence rows use, so a literal it names is always one a match contains.
func TestRequiredLiterals(t *testing.T) {
	for _, c := range []struct {
		pattern string
		want    []string
	}{
		{`LinkCost|CostFn`, []string{"LinkCost", "CostFn"}},
		{`iter\.Pull2?[[(]`, []string{"iter.Pull"}},
		{`func \(c \*Comm\) (Probe|Send)\(`, []string{"func (c *Comm) "}},
		{`pw\.(slab|free)\b|\.lanes\b`, []string{"pw.", ".lanes"}},
		// The parser factors the common prefix out of an alternation.
		{`NewWorkStealing\(|NewCentralized\(`, []string{"WorkStealing(", "Centralized("}},
		{`a|\w+`, nil},
		{`(?i)deleted`, nil},
		{`x*`, nil},
	} {
		got := requiredLiterals(t, c.pattern)
		slices.Sort(got)
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("requiredLiterals(%q) = %q, want %q", c.pattern, got, c.want)
		}
	}
}

// fencedFiles returns the regular files under paths (each a file, a
// directory or a glob of either) whose base names match include, if set,
// and not exclude, outside directories named excludeDir.
func fencedFiles(t *testing.T, paths []string, include, exclude, excludeDir string) []string {
	t.Helper()
	glob := func(pattern, name string) bool {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	var files []string
	for _, p := range paths {
		roots, err := filepath.Glob(p)
		if err != nil || len(roots) == 0 {
			t.Fatalf("%s names no file (%v)", p, err)
		}
		for _, root := range roots {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				switch name := d.Name(); {
				case err != nil:
					return err
				case d.IsDir():
					if path != root && (strings.HasPrefix(name, ".") || name == excludeDir) {
						return filepath.SkipDir
					}
				case d.Type().IsRegular() && path != "fence_test.go" &&
					(include == "" || glob(include, name)) && (exclude == "" || !glob(exclude, name)):
					files = append(files, path)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}
