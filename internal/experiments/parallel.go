package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ic2mpi/internal/scenario"
)

// Parallelism bounds the number of scenario runs the sweep engine — and
// through it docgen's pinned-run renderers — executes concurrently; <= 0
// (the default) means runtime.GOMAXPROCS(0). Each run is an independent,
// deterministic virtual-time simulation and results are always assembled
// in axis order, so report bytes are identical at any setting; only host
// wall-clock changes. cmd/experiments and cmd/docgen expose this as
// -parallel. Set it before starting sweeps; it is not synchronized with
// in-flight ones.
var Parallelism int

// CountFlag registers an int flag (0 until it is given: "pick for me")
// that refuses a value below least when it is parsed, so the usage error
// names the flag instead of the value silently meaning the default or
// switching the flag's effect off. It is the one definition behind the
// count flags of cmd/experiments, cmd/docgen and cmd/ic2mpid.
func CountFlag(fs *flag.FlagSet, name string, least int, usage string) *int {
	n := new(int)
	fs.Func(name, usage, func(v string) (err error) {
		if *n, err = strconv.Atoi(v); err == nil && *n < least {
			err = fmt.Errorf("must be >= %d", least)
		}
		return err
	})
	return n
}

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves the old file or the new one, never a torn one: a same-directory
// temp file of its own is written and synced, renamed over path (the
// last of concurrent writers wins), and the directory is synced so the
// rename is durable. Any failure removes the temp file. It is the one
// definition behind the snapshot and manifest writes of cmd/experiments
// and the daemon's cell and job records.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; records are readable by all.
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// workers resolves Parallelism to a concrete pool size for n tasks.
func workers(n int) int {
	w := Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// forEachParallel executes fn(0), ..., fn(n-1) on a bounded worker pool
// and blocks until all calls return. Each index runs exactly once; fn
// must write results into index-addressed slots (never append) so the
// outcome is independent of scheduling.
func forEachParallel(n int, fn func(int)) {
	w := workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	work := func() {
		for {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is a worker too: a daemon worker's grown stack runs a share
	wg.Wait()
}

// RunCells executes every parameter set against sc through run on the
// bounded worker pool and returns results in input order, failing on the
// first error in input order. It is the sweep engine's cell executor,
// exported so a shard runner (internal/shard) can execute an arbitrary
// subset of a sweep's cells with the same pool and the same determinism
// guarantees as RunSweep itself. A cell that panics (say, in its graph
// generator) fails with an error naming it, not the process.
func RunCells(sc scenario.Scenario, params []scenario.Params, run CellRunner) ([]*scenario.Result, error) {
	results := make([]*scenario.Result, len(params))
	errs := make([]error, len(params))
	forEachParallel(len(params), func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("experiments: cell %d panicked: %v", i, p)
			}
		}()
		results[i], errs[i] = run(sc, i, params[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
