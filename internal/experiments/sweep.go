package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ic2mpi/internal/scenario"
)

// The generic sweep engine: a cartesian sweep of one scenario over the
// platform's configuration axes (processor count, static partitioner,
// exchange mode, buffer pooling, dynamic balancer, interconnect model,
// fault-injection schedule, execution kernel, iteration count), producing a
// machine-readable SweepReport. The paper's tables and
// figures are special cases of this engine; `cmd/experiments -scenario`
// exposes it directly.

// Axes enumerates the parameter values a sweep visits; the cartesian
// product of all axes is run. An empty string (or 0 for the numeric axes)
// selects the scenario's default for that axis.
type Axes struct {
	// Procs is the processor-count axis.
	Procs []int `json:"procs"`
	// Partitioners is the static-partitioner axis (partition.Names
	// names the accepted values).
	Partitioners []string `json:"partitioners"`
	// Exchanges is the exchange-mode axis ("basic", "overlap").
	Exchanges []string `json:"exchanges"`
	// Buffers is the buffer-pooling axis: "pooled" only, since the
	// allocate-per-round mode was retired; kept so that axes documents,
	// cell keys and report columns written before still read the same.
	Buffers []string `json:"buffers"`
	// Balancers is the dynamic-balancer axis (scenario.Balancers names the
	// accepted values).
	Balancers []string `json:"balancers"`
	// Networks is the interconnect-model axis (netmodel.Names names the
	// accepted values).
	Networks []string `json:"networks"`
	// Perturbs is the fault-injection axis (fault.Names names the
	// accepted schedule specs, each optionally suffixed "@<seed>").
	Perturbs []string `json:"perturbs"`
	// Kernels is the mpi execution-engine axis (mpi.KernelNames lists the
	// accepted values); all kernels produce bit-identical virtual
	// timelines, so this axis exists for differential testing and for
	// host-time comparisons.
	Kernels []string `json:"kernels"`
	// Iterations is the iteration-count axis.
	Iterations []int `json:"iterations"`
}

// axis is one row of the axes table: everything the package knows about one
// sweep axis. The accessors are built by newAxis from the axis's slice in
// Axes and its field in scenario.Params, so no function below names an
// axis.
type axis struct {
	// keys are the accepted clause keys, canonical name first.
	keys []string
	// def is the number of values the axis sweeps when none are named.
	def int
	// len counts the values named explicitly (0: the default applies).
	len func(*Axes) int
	// fill gives an axis with no values its explicit default value(s).
	fill func(*Axes)
	// set parses one clause's values into the axis.
	set func(*Axes, []string) error
	// spread writes the axis's column of the enumeration: each value in
	// turn into the Params field of stride consecutive cells, cyclically.
	spread func(ax *Axes, cells []scenario.Params, stride int)
}

// n is the number of values the axis sweeps in ax.
func (a *axis) n(ax *Axes) int {
	if n := a.len(ax); n > 0 {
		return n
	}
	return a.def
}

func newAxis[T comparable](keys []string, vals func(*Axes) *[]T, field func(*scenario.Params) *T, def []T, parse func(string) (T, bool)) axis {
	return axis{
		keys: keys,
		def:  len(def),
		len:  func(ax *Axes) int { return len(*vals(ax)) },
		fill: func(ax *Axes) {
			if v := vals(ax); len(*v) == 0 {
				*v = slices.Clone(def)
			}
		},
		set: func(ax *Axes, list []string) error {
			out := make([]T, len(list))
			for i, s := range list {
				var ok bool
				if out[i], ok = parse(s); !ok {
					return fmt.Errorf("experiments: bad %s value %q", keys[0], s)
				}
			}
			*vals(ax) = out
			return nil
		},
		spread: func(ax *Axes, cells []scenario.Params, stride int) {
			v := *vals(ax)
			if len(v) == 0 {
				v = def
			}
			var zero T
			if len(v) == 1 && v[0] == zero {
				return // cells start zeroed
			}
			for i := 0; i < len(cells); {
				for _, x := range v {
					for end := i + stride; i < end; i++ {
						*field(&cells[i]) = x
					}
				}
			}
		},
	}
}

// nameAxis is an axis of names, validated by Scenario.Normalize; its
// default is the single value "" (the scenario's own default).
func nameAxis(keys []string, vals func(*Axes) *[]string, field func(*scenario.Params) *string) axis {
	return newAxis(keys, vals, field, []string{""}, func(s string) (string, bool) { return s, true })
}

// intAxis is an axis of positive integers with the given default values.
func intAxis(keys []string, vals func(*Axes) *[]int, field func(*scenario.Params) *int, def []int) axis {
	return newAxis(keys, vals, field, def, func(s string) (int, bool) {
		n, err := strconv.Atoi(s)
		return n, err == nil && n >= 1
	})
}

// axes declares the sweep space, outermost axis of the enumeration first:
// a processor-count group is contiguous, so Cells()[g*len(Procs):] is one
// speedup group. Adding an axis is one row here plus its Axes field, its
// Params field and its Scenario.Normalize block.
var axes = [...]axis{
	intAxis([]string{"iters", "iterations"},
		func(ax *Axes) *[]int { return &ax.Iterations },
		func(p *scenario.Params) *int { return &p.Iterations }, []int{0}),
	nameAxis([]string{"partitioner", "partitioners", "part"},
		func(ax *Axes) *[]string { return &ax.Partitioners },
		func(p *scenario.Params) *string { return &p.Partitioner }),
	nameAxis([]string{"exchange", "exchanges"},
		func(ax *Axes) *[]string { return &ax.Exchanges },
		func(p *scenario.Params) *string { return &p.Exchange }),
	nameAxis([]string{"buffers", "buffer"},
		func(ax *Axes) *[]string { return &ax.Buffers },
		func(p *scenario.Params) *string { return &p.Buffers }),
	nameAxis([]string{"balancer", "balancers"},
		func(ax *Axes) *[]string { return &ax.Balancers },
		func(p *scenario.Params) *string { return &p.Balancer }),
	nameAxis([]string{"network", "networks"},
		func(ax *Axes) *[]string { return &ax.Networks },
		func(p *scenario.Params) *string { return &p.Network }),
	nameAxis([]string{"perturb", "perturbs"},
		func(ax *Axes) *[]string { return &ax.Perturbs },
		func(p *scenario.Params) *string { return &p.Perturb }),
	nameAxis([]string{"kernel", "kernels"},
		func(ax *Axes) *[]string { return &ax.Kernels },
		func(p *scenario.Params) *string { return &p.Kernel }),
	intAxis([]string{"procs", "proc"},
		func(ax *Axes) *[]int { return &ax.Procs },
		func(p *scenario.Params) *int { return &p.Procs }, Procs),
}

// AxisNames returns the canonical name of every sweep axis, outermost axis
// of the enumeration first.
func AxisNames() []string {
	names := make([]string, len(axes))
	for i := range axes {
		names[i] = axes[i].keys[0]
	}
	return names
}

// Normalized returns ax with every empty axis filled to its explicit
// default: the paper's processor counts (Procs), and the single "scenario
// default" value ("" or 0) elsewhere. It is the space Size counts and Cells
// enumerates.
func (ax Axes) Normalized() Axes {
	for i := range axes {
		axes[i].fill(&ax)
	}
	return ax
}

// Empty reports whether ax names no explicit axis values at all.
func (ax Axes) Empty() bool {
	for i := range axes {
		if axes[i].len(&ax) > 0 {
			return false
		}
	}
	return true
}

// Size returns the number of runs the sweep performs, saturating at
// math.MaxInt: a caller's cap on the count must refuse a product that
// would wrap, never see it as small.
func (ax Axes) Size() int {
	size := 1
	for i := range axes {
		n := axes[i].n(&ax)
		if n > math.MaxInt/size {
			return math.MaxInt
		}
		size *= n
	}
	return size
}

// Set names the values of one axis — by any of its accepted keys — from a
// comma-separated list. An axis takes its values once: naming it again,
// whether by a second sweep clause or by a CLI shorthand flag, is an error.
func (ax *Axes) Set(name, list string) error {
	name = strings.TrimSpace(name)
	var vals []string
	for _, v := range strings.Split(list, ",") {
		if v = strings.TrimSpace(v); v != "" {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return fmt.Errorf("experiments: sweep axis %q has no values", name)
	}
	for i := range axes {
		a := &axes[i]
		if !slices.Contains(a.keys, name) {
			continue
		}
		if a.len(ax) > 0 {
			return fmt.Errorf("experiments: sweep axis %q is set twice", a.keys[0])
		}
		return a.set(ax, vals)
	}
	return fmt.Errorf("experiments: unknown sweep axis %q (known: %s)", name, strings.Join(AxisNames(), ", "))
}

// ParseAxes parses a sweep specification of semicolon-separated
// axis=value,value pairs, e.g.
//
//	procs=1,2,4,8;partitioner=metis,pagrid;network=uniform,hypercube
//
// AxisNames lists the axes (plural forms work too). Unspecified axes stay
// at the scenario's default; naming an axis twice is an error.
func ParseAxes(spec string) (Axes, error) {
	var ax Axes
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, list, ok := strings.Cut(clause, "=")
		if !ok {
			return ax, fmt.Errorf("experiments: sweep clause %q is not axis=value,...", clause)
		}
		if err := ax.Set(key, list); err != nil {
			return ax, err
		}
	}
	return ax, nil
}

// SweepRow is one run of a sweep: the scenario result plus the speedup
// relative to the 1-processor run with identical remaining parameters
// (0 when the sweep has no 1-processor baseline).
type SweepRow struct {
	scenario.Result
	Speedup float64 `json:"speedup"`
}

// SweepReport is the machine-readable result of one sweep, ordered
// deterministically: iterations, partitioner, exchange, buffers,
// balancer, network, perturbation, kernel, then processor count, each in axis
// order.
type SweepReport struct {
	// ID is the report identifier ("sweep-<scenario>").
	ID string `json:"id"`
	// Title is the human-readable headline.
	Title string `json:"title"`
	// Scenario is the swept scenario's name.
	Scenario string `json:"scenario"`
	// Rows holds one entry per parameter combination.
	Rows []SweepRow `json:"rows"`
	// Notes carries caveats for the reader.
	Notes string `json:"notes,omitempty"`
}

// One returns the one-cell sweep of a specification with at most one
// value per axis, and errors on more. An unset processor axis becomes the
// single value 0, the scenario's default, as every other unset axis is.
// Run through RunSweepWith, One's sweep gives a single run the row its
// cell has in any sweep, speedup included.
func (ax Axes) One() (Axes, error) {
	if len(ax.Procs) == 0 {
		ax.Procs = []int{0}
	}
	if n := ax.Size(); n > 1 {
		return Axes{}, fmt.Errorf("experiments: expected a single parameter combination, got a %d-run sweep", n)
	}
	return ax, nil
}

// Single returns the parameters of One's cell: the single run of a
// specification in which every axis has at most one value (unset axes
// stay at the scenario's default). It errors when any axis holds more.
func (ax Axes) Single() (scenario.Params, error) {
	one, err := ax.One()
	if err != nil {
		return scenario.Params{}, err
	}
	return one.Cells()[0], nil
}

// Cells enumerates the sweep's parameter combinations in the axes table's
// order — iterations outermost, then partitioner, exchange, buffers,
// balancer, network, perturbation, kernel, and processor count innermost —
// so each contiguous chunk of len(ax.Procs) cells forms one speedup group:
// cell i is i written in the mixed radix of the axis lengths. This is the
// exact run order RunSweep assembles rows in, and the unit the daemon's
// result cache keys on (one CellKey per cell).
func (ax Axes) Cells() []scenario.Params {
	cells := make([]scenario.Params, ax.Size())
	stride := 1
	for k := len(axes) - 1; k >= 0; k-- {
		axes[k].spread(&ax, cells, stride)
		stride *= axes[k].n(&ax)
	}
	return cells
}

// CellRunner executes one sweep cell: cell i of the Cells() enumeration,
// at parameters p. RunSweepWith calls it concurrently from the bounded
// worker pool; implementations must be safe for that.
type CellRunner func(sc scenario.Scenario, i int, p scenario.Params) (*scenario.Result, error)

// RunSweep executes the cartesian sweep of sc over ax. Runs execute
// concurrently on the bounded worker pool (see Parallelism), but rows are
// assembled in deterministic axis order, so the report — and any encoding
// of it — is byte-identical at any parallelism. The cells share one memo
// of their inputs (scenario.Inputs).
func RunSweep(sc scenario.Scenario, ax Axes) (*SweepReport, error) {
	in := scenario.NewInputs(sc)
	return RunSweepWith(sc, ax, func(_ scenario.Scenario, _ int, p scenario.Params) (*scenario.Result, error) {
		return in.Run(p)
	})
}

// RunSweepWith is RunSweep with a custom per-cell runner, and the one
// place a report is assembled. A runner may serve a cell from a cache or
// a manifest, or run it traced, checkpointed or resumed; because every run
// is a pure function of its normalized parameters, the report is
// byte-identical either way.
func RunSweepWith(sc scenario.Scenario, ax Axes, run CellRunner) (*SweepReport, error) {
	cells := ax.Cells()
	// A bad axis value is refused before the first cell runs, as the daemon
	// refuses it at submit, not after every cell ahead of it has.
	for _, p := range cells {
		if _, err := sc.Normalize(p); err != nil {
			return nil, err
		}
	}
	results, err := RunCells(sc, cells, run)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		ID:       "sweep-" + sc.Name,
		Title:    fmt.Sprintf("Sweep of scenario %s: %s", sc.Name, sc.Description),
		Scenario: sc.Name,
		Rows:     make([]SweepRow, len(results)),
	}
	for i, res := range results {
		rep.Rows[i].Result = *res
	}
	// One run of the innermost axis, the processor counts, is one speedup
	// group.
	procs := axes[len(axes)-1].n(&ax)
	for g := 0; g < len(rep.Rows); g += procs {
		group := rep.Rows[g : g+procs]
		// Speedups relative to the group's 1-processor run.
		var base float64
		for _, row := range group {
			if row.Params.Procs == 1 {
				base = row.Elapsed
				break
			}
		}
		for i := range group {
			if base > 0 && group[i].Elapsed > 0 {
				group[i].Speedup = base / group[i].Elapsed
			}
		}
	}
	return rep, nil
}

// Format renders the sweep as an aligned text table.
func (r *SweepReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%6s %12s %8s %9s %19s %9s %10s %6s %12s %8s %9s %11s %9s\n",
		"procs", "partitioner", "exchange", "buffers", "balancer", "network", "perturb", "iters",
		"elapsed_s", "speedup", "edge_cut", "migrations", "msgs")
	for _, row := range r.Rows {
		p := row.Params
		fmt.Fprintf(&b, "%6d %12s %8s %9s %19s %9s %10s %6d %12.4f %8.2f %9d %11d %9d\n",
			p.Procs, p.Partitioner, p.Exchange, p.Buffers, p.Balancer, p.Network, p.Perturb, p.Iterations,
			row.Elapsed, row.Speedup, row.EdgeCut, row.Migrations, row.MessagesSent)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// String implements fmt.Stringer.
func (r *SweepReport) String() string { return r.Format() }

// ScenarioList renders the registered scenarios for `-list`, sorted by
// name (the order scenario.List returns).
func ScenarioList() string {
	var b strings.Builder
	list := scenario.List()
	width := 0
	for _, sc := range list {
		if len(sc.Name) > width {
			width = len(sc.Name)
		}
	}
	for _, sc := range list {
		fmt.Fprintf(&b, "%-*s  %s\n", width, sc.Name, sc.Description)
	}
	return b.String()
}
