package main

import (
	"strings"
	"testing"

	"ic2mpi/internal/partition"
)

// TestPick pins -partitioner against the registry: every registered name
// resolves, PaGrid — and only PaGrid — gets a k-processor network and the
// -rref ratio, and an unknown name is refused with the known ones listed.
func TestPick(t *testing.T) {
	const k, rref = 8, 0.3
	for _, name := range partition.Names() {
		pt, net, err := pick(name, k, rref)
		if err != nil {
			t.Errorf("-partitioner %s: %v", name, err)
			continue
		}
		pg, pagrid := pt.(*partition.PaGrid)
		if pagrid != (net != nil) {
			t.Errorf("-partitioner %s: PaGrid %v, network %v", name, pagrid, net)
		} else if pagrid && (pg.Rref != rref || net.Procs() != k) {
			t.Errorf("-partitioner pagrid: Rref %v on %d processors, want %v on %d", pg.Rref, net.Procs(), rref, k)
		}
	}
	_, _, err := pick("nope", k, rref)
	if err == nil {
		t.Fatal("-partitioner nope accepted")
	}
	for _, name := range partition.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}
