package main

import "encoding/json"

// runSeconds is how long one run measures; BENCHMARK.json freezes it.
const runSeconds = 15

// metricDef declares a metric: BENCHMARK.json is generated from these tables
// (go run ./bench -benchmark-json), and the smoke test holds the program to
// them. Moves names what a per-layer metric is expected to move.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd metrics are what a user of the simulator waits for or pays. An op
// is the workload's unit of request: a cell (sweep_small), a whole scenario
// run under one kernel (machine_*), a job (daemon_*). The bounds are sized
// for the recording host's drift (README.md, "Bounds"), not for the
// simulator: on a quiet host they could be a third of this.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	sweep  = "ops_per_s@sweep_small"
	sparse = "ops_per_s@machine_sparse"
	dense  = "ops_per_s@machine_dense"
	cold   = "ops_per_s,op_p50_ms@daemon_cold"
	cached = "ops_per_s,op_p50_ms@daemon_cached"
	none   = "nothing today (baseline only)"
)

var perLayer = []metricDef{
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "sanity: layer shares are believable only while this is small"},
	{Name: "bench.budget_sum_pct", Unit: "%", Better: "higher", Moves: "sanity: self times over traced wall time, 100 when nothing is unaccounted"},
	{Name: "bench.traced_wall_ms", Unit: "ms", Better: "lower", Moves: "the wall time the span budget of trace-<workload>.json adds up to"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher", Moves: "the host, not the simulator: calibration loop against the reference (per-layer times are not scaled by it)"},
	{Name: "platform.msgs", Unit: "count", Better: "lower", Moves: "exact; messages of one round of this workload"},
	{Name: "platform.bytes", Unit: "count", Better: "lower", Moves: "exact; payload bytes of one round of this workload"},
	{Name: "platform.virtual_s", Unit: "s", Better: "lower", Moves: "exact; virtual seconds simulated in one round of this workload"},

	{Name: "experiments.cells_per_s", Unit: "1/s", Better: "higher", Moves: "is " + sweep + ", at the probes' round count"},
	{Name: "experiments.cells_per_s_par1", Unit: "1/s", Better: "higher", Moves: "the single-threaded baseline of " + sweep},
	{Name: "experiments.parallel_efficiency", Unit: "ratio", Better: "higher", Moves: sweep + " over nproc times the baseline"},
	{Name: "platform.allocs_per_cell", Unit: "count", Better: "lower", Moves: sweep + "; " + cold},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower", Moves: "exact; summed over the sweep_small cells"},
	{Name: "balance.migrations", Unit: "count", Better: "lower", Moves: "exact; summed over the sweep_small cells"},
	{Name: "graph.gen_ms", Unit: "ms", Better: "lower", Moves: sweep + " (small share)"},
	{Name: "platform.run_ms.small", Unit: "ms", Better: "lower", Moves: sweep + "; " + cold},
	{Name: "partition.evaluate_ms", Unit: "ms", Better: "lower", Moves: sweep + " (small share)"},
	{Name: "bsp.pagerank_ms", Unit: "ms", Better: "lower", Moves: sweep + " (3 of 282 cells: effectively none)"},
	{Name: "scenario.config_self_ms", Unit: "ms", Better: "lower", Moves: sweep},

	{Name: "experiments.parse_axes_us", Unit: "us", Better: "lower", Moves: cached + " (small share)"},
	{Name: "experiments.cellkey_us", Unit: "us", Better: "lower", Moves: cached},
	{Name: "scenario.normalize_us", Unit: "us", Better: "lower", Moves: cached + " (DecodeJobSpec and CellKey normalize every cell); " + sweep},
	{Name: "experiments.engine_self_ms", Unit: "ms", Better: "lower", Moves: sweep},
	{Name: "experiments.encode_json_ms", Unit: "ms", Better: "lower", Moves: sweep + "; " + cached},
	{Name: "experiments.report_bytes", Unit: "count", Better: "lower", Moves: "exact; JSON bytes of the sweep_small reports"},
	{Name: "experiments.encode_csv_ms", Unit: "ms", Better: "lower", Moves: cached + " (J4)"},

	{Name: "mpi.rank_iters_per_s.goroutine.sparse", Unit: "1/s", Better: "higher", Moves: sparse + ": simulated rank-iterations per host second"},
	{Name: "mpi.rank_iters_per_s.event.sparse", Unit: "1/s", Better: "higher", Moves: sparse},
	{Name: "mpi.rank_iters_per_s.pevent.sparse", Unit: "1/s", Better: "higher", Moves: sparse},
	{Name: "platform.iter_ms.sparse", Unit: "ms", Better: "lower", Moves: sparse},
	{Name: "platform.init_ms.sparse", Unit: "ms", Better: "lower", Moves: sparse},
	{Name: "mpi.rank_iters_per_s.goroutine.dense", Unit: "1/s", Better: "higher", Moves: dense},
	{Name: "mpi.rank_iters_per_s.event.dense", Unit: "1/s", Better: "higher", Moves: dense},
	{Name: "mpi.rank_iters_per_s.pevent.dense", Unit: "1/s", Better: "higher", Moves: dense},
	{Name: "platform.iter_ms.dense", Unit: "ms", Better: "lower", Moves: dense},
	{Name: "platform.init_ms.dense", Unit: "ms", Better: "lower", Moves: dense},
	{Name: "platform.ns_per_msg.dense", Unit: "ns", Better: "lower", Moves: dense},
	{Name: "mpi.peak_bytes_per_rank.goroutine", Unit: "B", Better: "lower", Moves: "peak_rss_mb@machine_sparse"},
	{Name: "mpi.peak_bytes_per_rank.event", Unit: "B", Better: "lower", Moves: "peak_rss_mb@machine_sparse"},
	{Name: "mpi.peak_bytes_per_rank.pevent", Unit: "B", Better: "lower", Moves: "peak_rss_mb@machine_sparse"},
	{Name: "mpi.pevent_scaling_2w", Unit: "ratio", Better: "higher", Moves: dense + " (pevent runs only)"},
	{Name: "partition.metis_ms.dense", Unit: "ms", Better: "lower", Moves: dense + " (largest share after the run itself); setup_s@machine_dense"},

	{Name: "checkpoint.run_overhead_pct", Unit: "%", Better: "lower", Moves: none},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower", Moves: none},
	{Name: "checkpoint.bytes", Unit: "count", Better: "lower", Moves: "exact; snapshot of the dense cell at iteration 10"},
	{Name: "checkpoint.decode_ms", Unit: "ms", Better: "lower", Moves: none},
	{Name: "checkpoint.resume_ms", Unit: "ms", Better: "lower", Moves: none},

	{Name: "server.jobs_per_s.cold", Unit: "1/s", Better: "higher", Moves: "is ops_per_s@daemon_cold, at the probes' batch size"},
	{Name: "server.job_ms_p50.cold", Unit: "ms", Better: "lower", Moves: "is op_p50_ms@daemon_cold"},
	{Name: "server.job_ms_p99.cold", Unit: "ms", Better: "lower", Moves: "the tail of op_p50_ms@daemon_cold; too unsteady on a shared host to carry a bound"},
	{Name: "server.first_result_ms_p50.cold", Unit: "ms", Better: "lower", Moves: "op_p50_ms@daemon_cold: submit sent to first cell or trace line"},
	{Name: "server.cells_run", Unit: "count", Better: "lower", Moves: "exact; cells simulated by the cold batch"},
	{Name: "server.queue_ms_p50", Unit: "ms", Better: "lower", Moves: cold},
	{Name: "server.queue_ms_p99", Unit: "ms", Better: "lower", Moves: "rises before ops_per_s@daemon_cold stops rising"},
	{Name: "server.jobs_per_s.cached", Unit: "1/s", Better: "higher", Moves: "is ops_per_s@daemon_cached, at the probes' batch size"},
	{Name: "server.job_ms_p50.cached", Unit: "ms", Better: "lower", Moves: "is op_p50_ms@daemon_cached"},
	{Name: "server.job_ms_p99.cached", Unit: "ms", Better: "lower", Moves: "the tail of op_p50_ms@daemon_cached"},
	{Name: "server.first_result_ms_p50.cached", Unit: "ms", Better: "lower", Moves: "op_p50_ms@daemon_cached"},
	{Name: "server.cache_hits", Unit: "count", Better: "higher", Moves: "exact; must equal the cells of the cached batch"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "exact; must be 1"},
	{Name: "server.stream_bytes_per_job", Unit: "B", Better: "lower", Moves: cached},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower", Moves: cached + " (part of the op); a few % of " + cold},
	{Name: "server.stream_ms_p50", Unit: "ms", Better: "lower", Moves: cached + " (part of the op)"},
	{Name: "server.getdoc_ms_p50", Unit: "ms", Better: "lower", Moves: cached + " (part of the op)"},
	{Name: "server.result_ms_p50", Unit: "ms", Better: "lower", Moves: cached + " (part of the op)"},
	{Name: "server.decode_spec_us", Unit: "us", Better: "lower", Moves: cached},
	{Name: "server.restore_ms", Unit: "ms", Better: "lower", Moves: none},

	{Name: "mpi.spawn_us_per_rank.goroutine", Unit: "us", Better: "lower", Moves: sparse + "; " + sweep},
	{Name: "mpi.barrier_ns_per_rank.goroutine", Unit: "ns", Better: "lower", Moves: sparse + "; " + sweep},
	{Name: "mpi.allgather_ns_per_rank.goroutine", Unit: "ns", Better: "lower", Moves: sparse + "; " + sweep},
	{Name: "mpi.halo_ns_per_msg.goroutine", Unit: "ns", Better: "lower", Moves: dense + "; " + sweep},
	{Name: "mpi.spawn_us_per_rank.event", Unit: "us", Better: "lower", Moves: sparse},
	{Name: "mpi.barrier_ns_per_rank.event", Unit: "ns", Better: "lower", Moves: sparse},
	{Name: "mpi.allgather_ns_per_rank.event", Unit: "ns", Better: "lower", Moves: sparse},
	{Name: "mpi.halo_ns_per_msg.event", Unit: "ns", Better: "lower", Moves: dense},
	{Name: "mpi.spawn_us_per_rank.pevent", Unit: "us", Better: "lower", Moves: sparse},
	{Name: "mpi.barrier_ns_per_rank.pevent", Unit: "ns", Better: "lower", Moves: sparse},
	{Name: "mpi.allgather_ns_per_rank.pevent", Unit: "ns", Better: "lower", Moves: sparse},
	{Name: "mpi.halo_ns_per_msg.pevent", Unit: "ns", Better: "lower", Moves: dense},

	{Name: "netmodel.new_ms.p16", Unit: "ms", Better: "lower", Moves: sweep},
	{Name: "netmodel.new_ms.p256", Unit: "ms", Better: "lower", Moves: dense},
	{Name: "netmodel.new_ms.p4096", Unit: "ms", Better: "lower", Moves: sparse},
	{Name: "netmodel.arrival_ns", Unit: "ns", Better: "lower", Moves: dense},
	{Name: "fault.wrap_ms", Unit: "ms", Better: "lower", Moves: sweep + " (perturbed heat cells only)"},
	{Name: "partition.metis_ms.small", Unit: "ms", Better: "lower", Moves: sweep + "; " + cold},
	{Name: "partition.pagrid_ms.small", Unit: "ms", Better: "lower", Moves: sweep + "; " + cold + " (J2)"},
	{Name: "partition.geometric_ms", Unit: "ms", Better: "lower", Moves: sweep + " (life cells)"},

	{Name: "balance.plan_us.centralized", Unit: "us", Better: "lower", Moves: sweep + "; " + cold + " (J3)"},
	{Name: "balance.plan_us.diffusion", Unit: "us", Better: "lower", Moves: sweep + "; " + cold + " (J3)"},
	{Name: "balance.plan_us.worksteal", Unit: "us", Better: "lower", Moves: sweep},
	{Name: "balance.plan_us.hierarchical", Unit: "us", Better: "lower", Moves: sweep},
	{Name: "balance.plan_us.predictive", Unit: "us", Better: "lower", Moves: sweep},
	{Name: "balance.run_overhead_ms", Unit: "ms", Better: "lower", Moves: sweep + " (balanced cells); " + cold + " (J3)"},

	{Name: "trace.record_overhead_pct", Unit: "%", Better: "lower", Moves: "op_p50_ms@daemon_cold (J5 only)"},
	{Name: "trace.write_jsonl_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms@daemon_cold (J5 only)"},
	{Name: "trace.jsonl_bytes", Unit: "count", Better: "lower", Moves: "exact; trace of heat at 16 procs x 50 iterations"},

	{Name: "shard.plan_ms", Unit: "ms", Better: "lower", Moves: none},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower", Moves: none},
	{Name: "shard.manifest_bytes", Unit: "count", Better: "lower", Moves: "exact; completed manifest of the 45-cell hex64 sweep"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain data
	}
	return data
}
