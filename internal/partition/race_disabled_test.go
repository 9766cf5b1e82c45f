//go:build !race

package partition

// raceEnabled reports whether the race detector instruments this test
// binary; allocation-count pins are meaningless under instrumentation.
const raceEnabled = false
