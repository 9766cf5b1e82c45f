package vtime

import "fmt"

// Clock is a per-rank virtual clock measured in seconds. The zero value is
// a clock at time zero. A Clock must only be advanced by its owning rank;
// cross-rank synchronization happens by exchanging values explicitly (the
// mpi package does this at message matching and collective operations).
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds. Negative d is ignored so
// that cost formulas built from measured deltas can never move time
// backwards.
func (c *Clock) Advance(d float64) {
	if d > 0 {
		// The conversion rounds d to a float64 before the add. Advance
		// inlines into callers that pass a product (Charge(a*b)), and the
		// Go spec lets a compiler fuse x*y + z across statements unless an
		// explicit conversion intervenes; arm64 would, amd64 would not,
		// and the clock's bits are the same on every host.
		c.now += float64(d)
	}
}

// AdvanceTo moves the clock forward to time t if t is later than now.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// String implements fmt.Stringer for debugging output.
func (c *Clock) String() string { return fmt.Sprintf("vt=%.6fs", c.now) }

// Communication pricing lives in internal/netmodel: the LogGP base
// parameters (netmodel.LogGP, netmodel.Origin2000) and the pluggable
// interconnect models that scale them per rank pair. This package keeps
// only the clock.
