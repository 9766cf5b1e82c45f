// Package balance implements dynamic load balancers pluggable into the
// iC2mpi platform (the platform.Balancer plug-in point). The primary
// implementation is the thesis' centralized heuristic (Section 4.3,
// GetLoadRebalancingParameters in Appendix C): a designated processor
// examines the weighted processor network graph, labels a processor
// "busy" when it has done at least 25% more work than every neighbor,
// pairs it with its least-loaded neighbor, and hands the busy/idle pairs to
// the platform's task migration routine.
//
// The mean-based alternatives share one diffusion pass (diffuse): Diffusion
// runs it over all ranks, Predictive on forecast loads, Hierarchical once
// per cluster before its own cross-cluster pass. WorkStealing pulls instead
// of pushing and keeps its own loop. All four act at 10% from the mean.
// The thresholds are constants, not fields: every pinned result was
// measured at them.
//
// The registry (New, Names, Known) is the one name → balancer table, behind
// the scenario balancer axis; ClustersFor is what "hierarchical" derives
// from the run's interconnect.
//
// A balancer only plans (busy, idle) pairs; the platform executes the
// migrations — see the package map in docs/architecture.md for how the
// pieces fit, and internal/trace for observing a balancer's effect on
// per-iteration load imbalance.
package balance
