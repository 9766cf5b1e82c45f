// Command bench measures the simulator's host time end to end and layer by
// layer. See README.md in this directory.
//
//	go run ./bench                      all five workloads, untraced then traced
//	go run ./bench -workload W -trace 0 one run: the form BENCHMARK.json describes
//	go run ./bench -repeat 2            two sets of runs, compared against the bounds
//	go run ./bench -smoke               every code path at the smallest size
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var cfg runConfig
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "run this many sets of -runs untraced runs per workload and compare their medians against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 10, "with -repeat: runs per workload in one set, each with another seed")
	update := flag.Bool("update-digests", false, "recompute "+digestsPath+" from the current tree and exit")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	layerTable := flag.Bool("layer-table", false, "print README.md's table of per-layer metrics and what each should move, and exit")
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload (default: all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the daemon job order and the kernel rotation")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for results.json and the span files")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one round per workload and one repetition per probe")
	flag.Parse()
	cfg.nproc, cfg.trace, cfg.log = runtime.NumCPU(), *trace != 0, os.Stdout

	var err error
	switch {
	case *printJSON:
		fmt.Printf("%s\n", benchmarkJSON())
	case *layerTable:
		fmt.Println("| metric | unit | should move |\n|---|---|---|")
		for _, m := range perLayer {
			fmt.Printf("| `%s` | %s | %s |\n", m.Name, m.Unit, m.Moves)
		}
	case *update:
		err = updateDigests(cfg)
	case cfg.workload != "":
		err = single(cfg)
	case *repeat > 0:
		err = repeatSets(cfg, *repeat, *runs)
	default:
		err = all(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed, so the numbers of
// a failing run can still be read.
var errIncorrect = errors.New("outputs failed their checks (see the first failure above)")

// single is one run of one workload; its last line is the contract's JSON.
func single(cfg runConfig) error {
	fmt.Println(stampHost(cfg.nproc, cfg.seed))
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.writeRecord(cfg.out); err != nil {
		return err
	}
	fmt.Println(res.lastLine())
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// child runs one workload in a process of its own, so that peak_rss_mb and
// the heap are that workload's alone. It passes the child's lines through
// and returns the record the child left in the output directory.
func child(cfg runConfig, workload string, seed int64, trace int) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", cfg.out}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if i := bytes.LastIndexByte(bytes.TrimSpace(out), '\n'); i >= 0 && cfg.log != nil {
		cfg.log.Write(out[:i+1]) // everything but the contract's JSON line
	}
	data, err := os.ReadFile(recordPath(cfg.out, workload, trace != 0))
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v): %w", workload, runErr, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return res, nil
}

// all runs every workload untraced and then traced, prints one line per
// metric and writes the same to <out>/results.json.
func all(cfg runConfig) error {
	host := stampHost(cfg.nproc, cfg.seed)
	fmt.Println(host)
	fmt.Println("# the model has no real-hardware reference data: it is unvalidated, and no accuracy figure is given")
	var results []*runResult
	correct := true
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(cfg, w.name, cfg.seed, trace)
			if err != nil {
				return err
			}
			fmt.Printf("%-15s %-40s %14.6g %-8s n=%d\n", w.name, "failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
			results = append(results, res)
			correct = correct && res.Correct
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host    hostStamp    `json:"host"`
		Results []*runResult `json:"results"`
	}{host, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// updateDigests re-pins every digest: each workload's set-up computes and
// checks all of its reference outputs.
func updateDigests(cfg runConfig) error {
	book := &digestBook{pinned: map[string]string{}, update: true}
	e := &env{seed: cfg.seed, nproc: cfg.nproc, book: book}
	for _, name := range []string{"sweep_small", "machine_sparse", "machine_dense", "daemon_cold"} {
		w, _ := findWorkload(name)
		if _, err := w.setup(e); err != nil {
			return err
		}
	}
	fmt.Printf("pinned %d digests in %s\n", len(book.pinned), digestsPath)
	return book.write()
}
