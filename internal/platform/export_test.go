package platform

import "ic2mpi/internal/mpi"

// RaceEnabled exports raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// RunProbed is Run with the engine's host-side counts written to probe.
func RunProbed(cfg Config, probe *mpi.KernelCounters) (*Result, error) { return run(cfg, probe) }
