//go:build race

package mpi

// raceEnabled reports whether the race detector instruments this test
// binary; a 4096-rank run is too slow under instrumentation.
const raceEnabled = true
