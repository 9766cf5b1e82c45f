package main

import (
	"flag"
	"io"
	"strings"
	"testing"

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
