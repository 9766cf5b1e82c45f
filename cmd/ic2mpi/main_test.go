package main

import (
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
