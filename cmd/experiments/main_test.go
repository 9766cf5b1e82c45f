package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ic2mpi/internal/scenario"
)

// TestResolveAxesFlagPlumbing is the regression harness for the PR 8
// -kernel bug class: a shorthand flag that parses fine but never lands in
// its sweep axis. Every shorthand flag is driven through resolveAxes and
// asserted to arrive in the resolved Axes — in the right field, split on
// commas, trimmed — and to conflict with its spelled-out sweep axis.
func TestResolveAxesFlagPlumbing(t *testing.T) {
	axisOf := func(ax interface{}, field string) []string {
		return reflect.ValueOf(ax).FieldByName(field).Interface().([]string)
	}
	cases := []struct {
		name  string
		sweep string
		flags axisFlags
		field string // Axes field the flag must land in
		want  []string
	}{
		{
			name:  "balancer flag lands in Balancers",
			flags: axisFlags{balancer: "none,centralized,worksteal,hierarchical,predictive"},
			field: "Balancers",
			want:  []string{"none", "centralized", "worksteal", "hierarchical", "predictive"},
		},
		{
			name:  "network flag lands in Networks",
			flags: axisFlags{network: "hypercube,mesh2d"},
			field: "Networks",
			want:  []string{"hypercube", "mesh2d"},
		},
		{
			name:  "perturb flag lands in Perturbs",
			flags: axisFlags{perturb: "none, brownout ,ramp"},
			field: "Perturbs",
			want:  []string{"none", "brownout", "ramp"},
		},
		{
			name:  "kernel flag lands in Kernels",
			flags: axisFlags{kernel: "event,pevent"},
			field: "Kernels",
			want:  []string{"event", "pevent"},
		},
		{
			name:  "flags compose with an unrelated sweep axis",
			sweep: "procs=2,4",
			flags: axisFlags{balancer: "diffusion", perturb: "brownout"},
			field: "Balancers",
			want:  []string{"diffusion"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ax, err := resolveAxes(tc.sweep, tc.flags)
			if err != nil {
				t.Fatalf("resolveAxes(%q, %+v): %v", tc.sweep, tc.flags, err)
			}
			if got := axisOf(ax, tc.field); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("axis %s = %v, want %v", tc.field, got, tc.want)
			}
		})
	}
}

// TestResolveAxesFlagConflicts asserts each shorthand flag refuses to
// coexist with its spelled-out sweep axis instead of silently dropping
// one of the two.
func TestResolveAxesFlagConflicts(t *testing.T) {
	cases := []struct {
		sweep string
		flags axisFlags
		wantA string // flag name expected in the error
	}{
		{sweep: "balancer=none", flags: axisFlags{balancer: "diffusion"}, wantA: "-balancer"},
		{sweep: "network=uniform", flags: axisFlags{network: "mesh2d"}, wantA: "-network"},
		{sweep: "perturb=none", flags: axisFlags{perturb: "ramp"}, wantA: "-perturb"},
		{sweep: "kernel=event", flags: axisFlags{kernel: "pevent"}, wantA: "-kernel"},
	}
	for _, tc := range cases {
		_, err := resolveAxes(tc.sweep, tc.flags)
		if err == nil {
			t.Fatalf("resolveAxes(%q, %+v): expected a conflict error", tc.sweep, tc.flags)
		}
		if !strings.Contains(err.Error(), tc.wantA) {
			t.Fatalf("resolveAxes(%q, %+v): error %q does not name %s", tc.sweep, tc.flags, err, tc.wantA)
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
			ax, err := resolveAxes(tc.sweep, axisFlags{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runScenario(sc, tc.sweep, ax, tc.mode, cellRunner(workers)); err != nil {
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
