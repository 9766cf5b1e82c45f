package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// sweepSpec is one cmd/experiments-shaped request: a scenario and a -sweep
// string.
type sweepSpec struct {
	id, scenario, sweep string
}

// sweepSet is the everyday CLI sweep shape: 282 cells of 0.3-30 ms at 1-16
// procs. PaGrid is left out at hex64-fine procs=8 and random64-fine
// procs=16, where its refinement breaks ties in map order and the partition
// differs from run to run (see README.md, "Findings").
var sweepSet = []sweepSpec{
	{"hex64-metis", "hex64-fine", "procs=1,2,4,8,16;partitioner=metis;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree"},
	{"hex64-pagrid", "hex64-fine", "procs=1,2,4,16;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree"},
	{"random64-metis", "random64-fine", "procs=1,2,4,8,16;partitioner=metis;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree"},
	{"random64-pagrid", "random64-fine", "procs=1,2,4,8;partitioner=pagrid;balancer=none,diffusion,centralized;network=hypercube,mesh2d,fattree"},
	{"imbalance", "imbalance", "procs=2,4,8,16;balancer=none,centralized,diffusion,worksteal,hierarchical,predictive;network=hypercube,fattree"},
	{"heat", "heat", "procs=1,2,4,8,16;exchange=basic,overlap;perturb=none,brownout,chaos@7"},
	{"life", "life", "procs=1,2,4,8,16;partitioner=metis,rcb,rowband"},
	{"sssp", "sssp", "procs=1,2,4,8,16;network=uniform,hypercube,hetgrid"},
	{"battlefield", "battlefield", "procs=4,8,16;partitioner=metis,rectband,bf"},
	{"pagerank-bsp", "pagerank-bsp", "procs=2,4,8"},
}

// smokeSweepSet is the subset the -smoke path runs: every code path of the
// sweep workload (platform cells, perturbed cells, a custom runner) in a
// tenth of the time.
var smokeSweepSet = []sweepSpec{sweepSet[5], sweepSet[6], sweepSet[7], sweepSet[9]}

// jobSpec is one daemon request body.
type jobSpec struct {
	id, body string
	trace    bool
}

// daemonJobs is the daemon traffic mix; J5 exercises the live trace sink and
// bypasses the cell cache by design.
var daemonJobs = []jobSpec{
	{"J1", `{"scenario":"heat","sweep":"procs=1,2,4,8;iters=10"}`, false},
	{"J2", `{"scenario":"hex64-fine","sweep":"procs=1,2,4,16;partitioner=metis,pagrid"}`, false},
	{"J3", `{"scenario":"imbalance","sweep":"procs=4,8;balancer=none,diffusion,centralized"}`, false},
	{"J4", `{"scenario":"life","sweep":"procs=8;network=hypercube,mesh2d,fattree","format":"csv"}`, false},
	{"J5", `{"scenario":"heat","sweep":"procs=8;iters=20","trace":true}`, true},
}

// machineCell is one big-machine run: a scenario at a fixed size, run once
// under each kernel.
type machineCell struct {
	name   string
	sc     func() (Scenario, error)
	params Params
}

var kernels = []string{"goroutine", "event", "pevent"}

// sparseCell puts 64 nodes on 4096 ranks: almost every rank only spawns,
// meets barriers and collectives and parks.
var sparseCell = machineCell{
	name:   "sparse",
	sc:     func() (Scenario, error) { return scenarioGet("hex64-fine") },
	params: Params{Procs: 4096, Iterations: 10},
}

// denseCell keeps every one of 256 ranks busy: 16 nodes each, a halo
// exchange with the neighbours every iteration. The scenario is built here
// and not registered, so the simulator's registry is untouched.
var denseCell = machineCell{
	name: "dense",
	sc: func() (Scenario, error) {
		return Scenario{
			Name:        "bench-hex4096-fine",
			Description: "4096-node hexagonal grid (64x64), fine-grain neighbor averaging",
			Graph:       func() (*Graph, error) { return hexGrid(64, 64) },
			InitData:    initID,
			Node:        func(*Graph) NodeFunc { return averaging(uniformGrain(fineGrain)) },
			Iterations:  20,
		}, nil
	},
	params: Params{Procs: 256, Iterations: 20, Partitioner: "metis", Network: "hypercube"},
}

//go:embed testdata/digests.json
var digestsJSON []byte

// digestsPath is where -update-digests writes, relative to the repo root.
const digestsPath = "bench/testdata/digests.json"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return m, nil
}

// digestBook holds the pinned digests; with update set, check records what
// it is given instead of comparing.
type digestBook struct {
	pinned map[string]string
	update bool
}

func (d *digestBook) check(key string, body []byte) error {
	got := digest(body)
	if d.update {
		d.pinned[key] = got
		return nil
	}
	if want, ok := d.pinned[key]; !ok {
		return fmt.Errorf("digest %s: not pinned (run with -update-digests)", key)
	} else if got != want {
		return fmt.Errorf("digest %s: got %s, pinned %s", key, got, want)
	}
	return nil
}

func (d *digestBook) write() error {
	data, err := json.MarshalIndent(d.pinned, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(data, '\n'), 0o644)
}

// resultBytes is the kernel-independent encoding of a run's result: the
// three kernels must agree on it, and its digest is pinned.
func resultBytes(r *Result) []byte {
	c := *r
	c.Params.Kernel = ""
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // a Result is plain data
	}
	return b
}
