package balance

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/platform"
)

// resolve is the name → balancer entry the pins are taken through.
func resolve(t *testing.T, name, network string, procs int) platform.Balancer {
	t.Helper()
	b, err := New(name, network, procs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// planDigest is the SHA-256 of the plans b gives on draws seeded processor
// graphs of procs processors (2-16 when procs is 0), one line per plan;
// withHistory drives the history-aware entry with a seeded history.
func planDigest(b platform.Balancer, seed int64, draws, procs int, withHistory bool) string {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	for d := 0; d < draws; d++ {
		p := procs
		if p == 0 {
			p = 2 + rng.Intn(15)
		}
		pg := randomProcGraph(rng, p)
		hist := randomHistory(rng, p)
		var pairs []platform.Pair
		if withHistory {
			pairs = b.(platform.HistoryBalancer).PlanWithHistory(pg, hist)
		} else {
			pairs = b.Plan(pg)
		}
		fmt.Fprintf(h, "%d:", len(pairs))
		for _, pr := range pairs {
			fmt.Fprintf(h, " %d>%d", pr.Busy, pr.Idle)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPlansPinned holds every registered balancer to the plans recorded
// from the tree before the diffusion pass was stated once (three copies of
// the pairing loop, a P×P relative-load matrix, the name switch in
// internal/scenario): each row is the digest of a few hundred plans on
// seeded random processor graphs. A row that moves means a plan moved, and
// with it every balanced golden downstream.
func TestPlansPinned(t *testing.T) {
	want := map[string]string{
		"centralized":               "c8e9a60d9784a7f91082d4915ed9835a2927bca0b4c2cd811295a79acf79960d",
		"centralized-strict":        "cafa4893ec5c544bbc51666444db24462378c340628616fcda598304ea8da41a",
		"diffusion":                 "d7575b7455da59831d41efde06c7e8c336cf3d74e225ee2cb00ff1045fc8fb59",
		"worksteal":                 "199f19dd629e80db2a68bfa6e7b2acd59b8beb76602c617e90cd03cb27a4e7d6",
		"hierarchical":              "d42a884b7bfa5730bb57a5b5c53ec2bc5462495b541d7095049c2eaadf1f3a01",
		"predictive":                "d7575b7455da59831d41efde06c7e8c336cf3d74e225ee2cb00ff1045fc8fb59",
		"predictive+history":        "999caf695acc0d5d0759d12983dfbabf98cbd6b2fb7a8af5b100c0dd1b080582",
		"hierarchical/uniform/8":    "035ca3cf410175d033fec195cb1168542683e4d8f5096bf08bb63feafadfdc78",
		"hierarchical/uniform/16":   "9dbb974e08ad37b88aaadf1a6e72366a54a3d12a1917716d3b243b735bf9604a",
		"hierarchical/uniform/64":   "057a88bb5d9f2842b409d39ac7ddcf4da4311e1bfb492057c561fe56e41cc03e",
		"hierarchical/hypercube/8":  "5518c700c9f9805f663ce846c2fb8b6e40f6e1c85a6546862abc588ec9975636",
		"hierarchical/hypercube/16": "9dbb974e08ad37b88aaadf1a6e72366a54a3d12a1917716d3b243b735bf9604a",
		"hierarchical/hypercube/64": "057a88bb5d9f2842b409d39ac7ddcf4da4311e1bfb492057c561fe56e41cc03e",
		"hierarchical/mesh2d/8":     "6789edc44da824052f8d854001f09f273f471796e1b7913ecbad0b51dfb8ca2a",
		"hierarchical/mesh2d/16":    "2053909c465642aea3b5e7ea7c7bdb6240f6c943c7c43b91b84626be202c8fb3",
		"hierarchical/mesh2d/64":    "d438e265ff3eacb2474eccef9dde1f31aa006c3e2993cbccfdbfe89bb7c894ab",
		"hierarchical/fattree/8":    "5518c700c9f9805f663ce846c2fb8b6e40f6e1c85a6546862abc588ec9975636",
		"hierarchical/fattree/16":   "9dbb974e08ad37b88aaadf1a6e72366a54a3d12a1917716d3b243b735bf9604a",
		"hierarchical/fattree/64":   "0acd3130c2f17649450e9622c6cbf074f233602b0f0e0a3fa1a0ef4af2abd2fc",
		"hierarchical/hetgrid/8":    "5518c700c9f9805f663ce846c2fb8b6e40f6e1c85a6546862abc588ec9975636",
		"hierarchical/hetgrid/16":   "1a62b90e8ab159df2500b6c53513fbd3349416814393d0f2a351b582584d482d",
		"hierarchical/hetgrid/64":   "8be4f5a67cd795ccf8b382d4c0484a0c7f2e963a0d34bc56201d613fde09be8d",
	}
	got := map[string]string{}
	for _, name := range Names() {
		if name == "none" {
			continue
		}
		got[name] = planDigest(resolve(t, name, "", 0), 21, 300, 0, false)
	}
	got["predictive+history"] = planDigest(resolve(t, "predictive", "", 0), 21, 300, 0, true)
	for _, network := range netmodel.Names() {
		for _, procs := range []int{8, 16, 64} {
			row := fmt.Sprintf("hierarchical/%s/%d", network, procs)
			got[row] = planDigest(resolve(t, "hierarchical", network, procs), 21, 100, procs, false)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d rows computed, %d pinned: a balancer or network name was added or removed", len(got), len(want))
	}
	for row, digest := range got {
		if want[row] != digest {
			t.Errorf("%q: %q,", row, digest)
		}
	}
}
