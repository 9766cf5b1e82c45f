package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// Docgen: the measured tables in docs/scenarios.md and docs/benchmarks.md
// are generated artifacts, not hand-maintained text. Each table sits
// between a pair of HTML-comment markers
//
//	<!-- docgen:begin <section-id> -->
//	...generated body...
//	<!-- docgen:end <section-id> -->
//
// and cmd/docgen re-renders every marked region from a pinned set of
// deterministic scenario runs. Because execution is in virtual time, the
// regenerated bytes are identical on every host unless the platform's
// behavior actually changed — so go test runs `docgen -check`
// (cmd/docgen TestDocsUpToDate) and fails on any drift from the code.

// Marker delimiters. A begin line is DocgenBegin + id + DocgenClose.
const (
	DocgenBegin = "<!-- docgen:begin "
	DocgenEnd   = "<!-- docgen:end "
	DocgenClose = " -->"
)

// DocSection is one generated region of a documentation file.
type DocSection struct {
	// ID is the marker identifier.
	ID string
	// Generate renders the body between the markers (no trailing newline).
	Generate func() (string, error)
}

// DocFiles maps documentation file base names (relative to docs/) to
// their generated sections — the pinned run set cmd/docgen renders.
func DocFiles() map[string][]DocSection {
	return map[string][]DocSection{
		"scenarios.md": {
			{ID: "table-hex64-fine", Generate: scenarioDocTable("hex64-fine", docCols)},
			{ID: "hex-fine-tails", Generate: hexFineTails},
			{ID: "table-hex64-coarse", Generate: scenarioDocTable("hex64-coarse", docCols)},
			{ID: "table-random64-fine", Generate: scenarioDocTable("random64-fine", docColsNamed("random64-fine time (s)"))},
			{ID: "table-imbalance", Generate: scenarioDocTable("imbalance", docColsMigrations)},
			{ID: "table-battlefield", Generate: scenarioDocTable("battlefield", docCols)},
			{ID: "table-heat", Generate: scenarioDocTable("heat", docCols)},
			{ID: "table-life", Generate: scenarioDocTable("life", docCols)},
			{ID: "table-sssp", Generate: scenarioDocTable("sssp", docCols)},
			{ID: "table-pagerank-bsp", Generate: scenarioDocTable("pagerank-bsp", docColsBSP)},
			{ID: "table-hex64-fine-networks", Generate: hex64FineNetworks},
			{ID: "table-brownout-recovery", Generate: brownoutRecovery},
			{ID: "table-balancer-tournament", Generate: balancerTournament},
		},
		"benchmarks.md": {
			{ID: "vtime-ablations", Generate: vtimeAblations},
		},
	}
}

// RenderDocFile re-renders every marked section of src. It errors when
// src contains a marker with no registered section, when a registered
// section has no marker in src, or when markers are malformed — so a doc
// and its generator set cannot drift apart silently.
func RenderDocFile(src string, sections []DocSection) (string, error) {
	gens := make(map[string]func() (string, error), len(sections))
	for _, s := range sections {
		gens[s.ID] = s.Generate
	}
	seen := make(map[string]bool)
	lines := strings.Split(src, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if id, ok := markerID(line, DocgenEnd); ok {
			return "", fmt.Errorf("docgen: end marker %q without a begin", id)
		}
		id, ok := markerID(line, DocgenBegin)
		if !ok {
			out = append(out, line)
			continue
		}
		gen := gens[id]
		if gen == nil {
			return "", fmt.Errorf("docgen: marker %q has no registered section", id)
		}
		if seen[id] {
			return "", fmt.Errorf("docgen: duplicate marker %q", id)
		}
		seen[id] = true
		// Skip the stale body up to the matching end marker.
		j := i + 1
		for ; j < len(lines); j++ {
			if endID, ok := markerID(lines[j], DocgenEnd); ok {
				if endID != id {
					return "", fmt.Errorf("docgen: begin %q closed by end %q", id, endID)
				}
				break
			}
			if nested, ok := markerID(lines[j], DocgenBegin); ok {
				return "", fmt.Errorf("docgen: begin %q nested inside %q", nested, id)
			}
		}
		if j == len(lines) {
			return "", fmt.Errorf("docgen: begin %q has no end marker", id)
		}
		body, err := gen()
		if err != nil {
			return "", fmt.Errorf("docgen: section %q: %w", id, err)
		}
		out = append(out, line)
		out = append(out, strings.Split(body, "\n")...)
		out = append(out, lines[j])
		i = j
	}
	if len(seen) != len(gens) {
		var missing []string
		for id := range gens {
			if !seen[id] {
				missing = append(missing, id)
			}
		}
		sort.Strings(missing)
		return "", fmt.Errorf("docgen: sections %v have no markers in the file", missing)
	}
	return strings.Join(out, "\n"), nil
}

// markerID extracts the section id from a marker line with the given
// prefix, tolerating surrounding whitespace.
func markerID(line, prefix string) (string, bool) {
	t := strings.TrimSpace(line)
	if !strings.HasPrefix(t, prefix) || !strings.HasSuffix(t, DocgenClose) {
		return "", false
	}
	id := strings.TrimSuffix(strings.TrimPrefix(t, prefix), DocgenClose)
	if id == "" || strings.ContainsAny(id, " \t") {
		return "", false
	}
	return id, true
}

// docColumns selects the column set of a generated scenario table.
type docColumns struct {
	timeHeader string
	edgeCut    bool
	migrations bool
}

var (
	docCols           = docColumns{timeHeader: "time (s)", edgeCut: true}
	docColsMigrations = docColumns{timeHeader: "time (s)", edgeCut: true, migrations: true}
	docColsBSP        = docColumns{timeHeader: "time (s)"}
)

// docColsNamed is docCols with a custom time-column header (the
// random64-fine table names its scenario in the column).
func docColsNamed(header string) docColumns {
	return docColumns{timeHeader: header, edgeCut: true}
}

// scenarioDocTable renders the named scenario's measured speedup table at
// its default settings over the paper's processor counts.
func scenarioDocTable(name string, cols docColumns) func() (string, error) {
	return func() (string, error) {
		sc, err := scenario.Get(name)
		if err != nil {
			return "", err
		}
		rep, err := RunSweep(sc, Axes{})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("| procs | " + cols.timeHeader + " | speedup |")
		align := "|---:|---:|---:|"
		if cols.edgeCut {
			b.WriteString(" edge cut |")
			align += "---:|"
		}
		if cols.migrations {
			b.WriteString(" migrations |")
			align += "---:|"
		}
		b.WriteString("\n" + align)
		for _, row := range rep.Rows {
			fmt.Fprintf(&b, "\n| %d | %.4f | %.2f |", row.Params.Procs, row.Elapsed, row.Speedup)
			if cols.edgeCut {
				fmt.Fprintf(&b, " %d |", row.EdgeCut)
			}
			if cols.migrations {
				fmt.Fprintf(&b, " %d |", row.Migrations)
			}
		}
		return b.String(), nil
	}
}

// maxSpeedup returns the best speedup of the scenario's default sweep.
func maxSpeedup(name string) (float64, error) {
	sc, err := scenario.Get(name)
	if err != nil {
		return 0, err
	}
	rep, err := RunSweep(sc, Axes{})
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, row := range rep.Rows {
		if row.Speedup > best {
			best = row.Speedup
		}
	}
	return best, nil
}

// hexFineTails renders the measured headline-scaling sentence for the
// hex32/hex96 fine-grain variants.
func hexFineTails() (string, error) {
	s32, err := maxSpeedup("hex32-fine")
	if err != nil {
		return "", err
	}
	s96, err := maxSpeedup("hex96-fine")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("(`hex32-fine` tops out at %.2fx, `hex96-fine` at %.2fx — speedup\ngrows with graph size, the paper's headline scaling result.)", s32, s96), nil
}

// hex64FineNetworks renders the interconnect comparison table: hex64-fine
// under the paper's dynamic load balancer (whose gather/broadcast
// collectives put multi-hop wire time on the critical path — a statically
// partitioned run without synchronization absorbs modest hop latency
// into bottleneck slack instead) across the uniform, hypercube and 2-D
// mesh machines.
func hex64FineNetworks() (string, error) {
	networks := []string{"uniform", "hypercube", "mesh2d"}
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		return "", err
	}
	rep, err := RunSweep(sc, Axes{Balancers: []string{"centralized"}, Networks: networks})
	if err != nil {
		return "", err
	}
	// Index rows by their actual parameters rather than position, so a
	// change to axis defaults or sweep ordering can never silently pin
	// numbers into the wrong column.
	type cell struct{ elapsed, speedup float64 }
	byKey := make(map[string]map[int]cell, len(networks))
	for _, row := range rep.Rows {
		if byKey[row.Params.Network] == nil {
			byKey[row.Params.Network] = make(map[int]cell)
		}
		byKey[row.Params.Network][row.Params.Procs] = cell{row.Elapsed, row.Speedup}
	}
	var b strings.Builder
	b.WriteString("| procs |")
	align := "|---:|"
	for _, n := range networks {
		fmt.Fprintf(&b, " %s (s) | speedup |", n)
		align += "---:|---:|"
	}
	b.WriteString("\n" + align)
	for _, procs := range Procs {
		fmt.Fprintf(&b, "\n| %d |", procs)
		for _, n := range networks {
			row, ok := byKey[n][procs]
			if !ok {
				return "", fmt.Errorf("docgen: network table missing row network=%s procs=%d", n, procs)
			}
			fmt.Fprintf(&b, " %.4f | %.2f |", row.elapsed, row.speedup)
		}
	}
	return b.String(), nil
}

// faultSweep is the run both fault tables below are made of: the named
// scenario at 8 processors for 45 iterations with the aggressive balancing
// schedule (every 3 iterations, up to 3 plan+migrate rounds), swept over
// the given balancers, networks and perturbations (nil: the scenario's
// default). recs[i] holds the per-iteration trace of rep.Rows[i].
func faultSweep(name string, balancers, networks, perturbs []string) (rep *SweepReport, recs []*trace.Recorder, err error) {
	sc, err := scenario.Get(name)
	if err != nil {
		return nil, nil, err
	}
	ax := Axes{Procs: []int{8}, Iterations: []int{45}, Balancers: balancers, Networks: networks, Perturbs: perturbs}
	recs = make([]*trace.Recorder, ax.Size())
	in := scenario.NewInputs(sc)
	rep, err = RunSweepWith(sc, ax, func(_ scenario.Scenario, i int, p scenario.Params) (*scenario.Result, error) {
		recs[i] = &trace.Recorder{}
		p.BalanceEvery, p.BalanceRounds, p.Trace = 3, 3, recs[i]
		return in.Run(p)
	})
	return rep, recs, err
}

// brownoutRecovery renders the fault-injection table: heat, hex64-fine
// and hex64-coarse at 8 processors under the canonical mid-run brownout
// (one seed-chosen processor 3x slower for the middle third of a 45-
// iteration run), comparing no balancer against the centralized
// heuristic and diffusion with an aggressive balancing schedule (every 3
// iterations, up to 3 plan+migrate rounds). "vs none" is the recovery
// ratio: the unbalanced perturbed time over the balanced perturbed time
// for the same scenario — above 1.00 the balancer earned its keep. The
// split the table shows is the interesting result: fine-grain runs
// (heat, hex64-fine) are dominated by per-message overheads, so shedding
// nodes off the browned-out processor cannot repay the migration cost,
// while on coarse-grain runs the balancer recovers a large slice of the
// brownout.
func brownoutRecovery() (string, error) {
	var b strings.Builder
	b.WriteString("| scenario | balancer | time (s) | vs none | migrations |\n|---|---|---:|---:|---:|")
	for _, name := range []string{"heat", "hex64-fine", "hex64-coarse"} {
		rep, _, err := faultSweep(name, []string{"none", "centralized", "diffusion"}, nil, []string{"brownout"})
		if err != nil {
			return "", err
		}
		for _, row := range rep.Rows {
			fmt.Fprintf(&b, "\n| %s | %s | %.4f | %.2f | %d |",
				name, row.Params.Balancer, row.Elapsed, rep.Rows[0].Elapsed/row.Elapsed, row.Migrations)
		}
	}
	return b.String(), nil
}

// balancerTournament renders the balancer-tournament table: hex64-coarse
// at 8 processors with the aggressive balancing schedule of the brownout
// table (every 3 iterations, up to 3 plan+migrate rounds), crossing all
// five balancing strategies (plus no balancing) with three fault regimes
// (steady state, mid-run brownout, ramping slowdown) on two machines — a
// hypercube and the heterogeneous grid whose second cluster computes 2x
// slower. "vs none" is the recovery ratio against the unbalanced run of
// the same (network, perturb) cell, and "recovery iters" counts traced
// iterations whose compute-time imbalance exceeds 1.25 — how long the
// machine stayed out of balance, not just how the run ended.
func balancerTournament() (string, error) {
	balancers := []string{"none", "centralized", "diffusion", "worksteal", "hierarchical", "predictive"}
	var b strings.Builder
	b.WriteString("| network | perturb | balancer | time (s) | vs none | recovery iters | migrations |\n|---|---|---|---:|---:|---:|---:|")
	for _, net := range []string{"hypercube", "hetgrid"} {
		for _, pert := range []string{"none", "brownout", "ramp"} {
			// One sweep per (network, perturb) block of the table: the
			// balancer axis enumerates outside both.
			rep, recs, err := faultSweep("hex64-coarse", balancers, []string{net}, []string{pert})
			if err != nil {
				return "", err
			}
			for i, row := range rep.Rows {
				recovery := 0
				for _, d := range recs[i].Series() {
					if d.Imbalance > 1.25 {
						recovery++
					}
				}
				fmt.Fprintf(&b, "\n| %s | %s | %s | %.4f | %.2f | %d | %d |",
					net, pert, row.Params.Balancer, row.Elapsed, rep.Rows[0].Elapsed/row.Elapsed, recovery, row.Migrations)
			}
		}
	}
	return b.String(), nil
}

// vtimeAblations renders the deterministic virtual-time ablation table
// for docs/benchmarks.md: each block is one sweep at pinned parameters, so
// the simulated seconds — unlike ns/op — are exact, host-independent
// values a doc can pin.
func vtimeAblations() (string, error) {
	blocks := []struct {
		ablation, scenario string
		ax                 Axes
		labels             []string
	}{
		{"exchange (hex64-fine, 8 procs)", "hex64-fine",
			Axes{Exchanges: []string{scenario.ExchangeBasic, scenario.ExchangeOverlap}},
			[]string{"basic (Fig. 8)", "overlap (Fig. 8a)"}},
		{"balancer (imbalance, 8 procs)", "imbalance",
			Axes{Balancers: []string{"none", "centralized", "diffusion"}},
			[]string{"none", "centralized", "diffusion"}},
		{"network (imbalance+centralized, 8 procs)", "imbalance",
			Axes{Balancers: []string{"centralized"}, Networks: []string{"uniform", "hypercube", "mesh2d", "fattree"}},
			[]string{"uniform", "hypercube", "mesh2d", "fattree"}},
	}
	var b strings.Builder
	b.WriteString("| ablation | variant | virtual time (s) |\n|---|---|---:|")
	for _, blk := range blocks {
		sc, err := scenario.Get(blk.scenario)
		if err != nil {
			return "", err
		}
		blk.ax.Procs, blk.ax.Iterations = []int{8}, []int{20}
		rep, err := RunSweep(sc, blk.ax)
		if err != nil {
			return "", err
		}
		for i, row := range rep.Rows {
			fmt.Fprintf(&b, "\n| %s | %s | %.4f |", blk.ablation, blk.labels[i], row.Elapsed)
		}
	}
	return b.String(), nil
}
