package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ic2mpi"
	"ic2mpi/internal/partition"
)

// TestPickPartitioner pins -partitioner against the registry: every
// registered name and both baselines resolve (rcb did not before the CLI
// read the registry), only PaGrid gets a processor network, and an unknown
// name is refused with the known ones listed.
func TestPickPartitioner(t *testing.T) {
	const np = 4
	for _, name := range append(partition.Names(), "block", "roundrobin") {
		pt, net, err := pickPartitioner(name, np)
		if err != nil {
			t.Errorf("-partitioner %s: %v", name, err)
			continue
		}
		_, pagrid := pt.(*partition.PaGrid)
		if pagrid != (net != nil) {
			t.Errorf("-partitioner %s: PaGrid %v, network %v", name, pagrid, net)
		} else if pagrid && net.Procs() != np {
			t.Errorf("-partitioner %s: network has %d processors, want %d", name, net.Procs(), np)
		}
	}
	_, _, err := pickPartitioner("nope", np)
	if err == nil {
		t.Fatal("-partitioner nope accepted")
	}
	for _, name := range append(partition.Names(), "block", "roundrobin") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestCheckFlags: a flag that reaches nothing (-every without -dynamic, an
// -every below 1 that the platform would replace by 10) or would fail
// only after partitioning (-np, -iters, -grain) is refused at parse time
// with an error naming the flag; the defaults and ordinary values pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the flag the error must start with; "" for no error
	}{
		{args: nil},
		{args: []string{"-np", "1", "-iters", "0", "-grain", "0"}},
		{args: []string{"-dynamic"}},
		{args: []string{"-dynamic", "-every", "5"}},
		{args: []string{"-every", "5"}, want: "-every"},
		{args: []string{"-every", "10"}, want: "-every"},
		{args: []string{"-dynamic", "-every", "0"}, want: "-every"},
		{args: []string{"-dynamic", "-every", "-3"}, want: "-every"},
		{args: []string{"-every", "-3"}, want: "-every"},
		{args: []string{"-np", "0"}, want: "-np"},
		{args: []string{"-iters", "-1"}, want: "-iters"},
		{args: []string{"-grain", "-0.001"}, want: "-grain"},
		{args: []string{"-grain", "NaN"}, want: "-grain"},
	} {
		fs := flag.NewFlagSet("ic2mpi", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused with %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%v: got error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

// TestGraphChain is graphgen → partgraph → ic2mpi on graphgen's default
// 8x8 hex grid and its coordinates sidecar. With the sidecar every
// registered partitioner partitions the grid (partgraph -coords
// -partitioner all). ic2mpi reads no coordinates, so at -np 4 every
// registered partitioner, block and roundrobin either runs and matches
// the sequential reference under -verify or, being geometric, is refused
// as needing planar coordinates. At -np 7 the centralized balancer
// migrates at least one task and the result still verifies; -every
// without -dynamic is refused.
func TestGraphChain(t *testing.T) {
	g, err := ic2mpi.HexGrid(8, 8) // graphgen -kind hex -coords c.txt > g.graph
	if err != nil {
		t.Fatal(err)
	}
	var chaco, coords strings.Builder
	if err := ic2mpi.WriteChaco(&chaco, g, 0); err != nil {
		t.Fatal(err)
	}
	if err := ic2mpi.WriteCoords(&coords, g); err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(t.TempDir(), "g.graph")
	if err := os.WriteFile(graphPath, []byte(chaco.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// partgraph -graph g.graph -coords c.txt -partitioner all
	withCoords, err := ic2mpi.ReadChaco(strings.NewReader(chaco.String()))
	if err != nil {
		t.Fatal(err)
	}
	if withCoords.Coords, err = ic2mpi.ReadCoords(strings.NewReader(coords.String()), withCoords.NumVertices()); err != nil {
		t.Fatal(err)
	}
	for _, name := range partition.Names() {
		pt, net, err := pickPartitioner(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		part, err := pt.Partition(withCoords, net, 4)
		if err == nil {
			_, err = ic2mpi.EvaluatePartition(withCoords, part, 4)
		}
		if err != nil {
			t.Errorf("-partitioner %s with coordinates: %v", name, err)
		}
	}

	// cli runs ic2mpi on args and returns its report.
	cli := func(args ...string) (string, error) {
		fs := flag.NewFlagSet("ic2mpi", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, append([]string{"-graph", graphPath}, args...))
		if err != nil {
			return "", err
		}
		var out strings.Builder
		err = execute(o, &out)
		return out.String(), err
	}
	const verified = "verify: distributed result matches the sequential reference\n"
	for _, name := range append(partition.Names(), "block", "roundrobin") {
		out, err := cli("-np", "4", "-partitioner", name, "-verify")
		switch {
		case err != nil && !strings.Contains(err.Error(), "requires planar coordinates"):
			t.Errorf("-partitioner %s: %v", name, err)
		case err == nil && !strings.HasSuffix(out, verified):
			t.Errorf("-partitioner %s -verify: no verification line\n%s", name, out)
		}
	}

	out, err := cli("-np", "7", "-dynamic", "-verify")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\ntask migrations: [1-9]`).MatchString(out) || !strings.HasSuffix(out, verified) {
		t.Errorf("-np 7 -dynamic -verify: want at least one migration and the verification line\n%s", out)
	}
	if _, err := cli("-every", "5"); err == nil || !strings.HasPrefix(err.Error(), "-every requires -dynamic") {
		t.Errorf("-every without -dynamic: got %v, want it refused", err)
	}
}
