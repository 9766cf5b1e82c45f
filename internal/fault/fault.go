// Package fault injects deterministic perturbations into a simulated
// machine: it wraps any netmodel.Model in a layer that evolves the
// machine over virtual time — per-processor speed brownouts (transient
// slowdown windows), per-link latency/bandwidth degradation, and a
// per-processor background-load ramp.
//
// Every simulated machine the platform had before this package was
// static for the whole execution, so the periodic load balancer was only
// ever exercised by workload-side imbalance. A fault.Model makes the
// machine itself shift mid-run — the regime the paper's migration
// subsystem is supposed to handle — while keeping the virtual-time
// determinism contract intact: every perturbation is a pure function of
// (seed, epoch, rank), where the epoch is the platform iteration, so
// runs stay byte-identical across repeats, hosts and `-parallel`
// settings. No wall clock, no mutable state, no RNG stream that could be
// consumed in a schedule-dependent order.
//
// The wrapper implements netmodel.TimeVarying. The mpi runtime stamps
// every message with the sender's epoch and re-prices arrival with
// ArrivalTimeAt; the platform advances each rank's epoch at iteration
// boundaries and refreshes the processor's effective speed. Epoch 0 (the
// initialization phase) is never perturbed, so the *At methods at epoch
// 0 equal the base model's static answers.
//
// Schedules are named by compact specs ("brownout", "links", "ramp",
// "chaos", each optionally suffixed "@<seed>") so they can ride through
// scenario parameters, sweep axes and CLI flags; Parse resolves them and
// Wrap binds a schedule to a concrete run shape (procs, iterations). A
// schedule sets factors, probabilities, the ramp bound and the seed; the
// windows and the browned-out rank follow from the run shape and the
// seed, and nothing else sets them.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"ic2mpi/internal/netmodel"
)

// Brownout describes transient per-processor CPU slowdowns: an affected
// processor's computation and message overheads take Factor times longer
// while a window is active. Two modes exist:
//
//   - Windowed (Prob == 0): one seed-chosen processor runs slow for the
//     middle third of the run — the canonical "mid-run brownout".
//   - Probabilistic (Prob > 0): the iteration axis is divided into
//     windows of iters/8 iterations (at least 1) and every (processor,
//     window) browns out independently with probability Prob.
type Brownout struct {
	// Factor is the execution-time multiplier while browned out
	// (> 1 means slower; must be positive).
	Factor float64
	// Prob, when positive, selects probabilistic mode: the chance each
	// (processor, window) browns out.
	Prob float64
}

// LinkFault describes per-link degradation: an affected link's wire time
// (latency + bytes/bandwidth) is multiplied by Factor. The iteration
// axis is divided into windows of iters/6 iterations (at least 1) and
// every (link, window) degrades independently with probability Prob.
// Links are unordered processor pairs, so degradation is symmetric.
type LinkFault struct {
	// Prob is the chance each (link, window) degrades.
	Prob float64
	// Factor is the wire-time multiplier while degraded (must be
	// positive).
	Factor float64
}

// Ramp describes a background-load ramp: every processor's effective
// slowdown grows linearly over the run, reaching 1 + rate at the final
// iteration, where rate is seed-chosen per processor in [0, Max). The
// per-processor rates differ, so the ramp creates growing heterogeneity
// rather than a uniform (balancer-invisible) slowdown.
type Ramp struct {
	// Max bounds the per-processor final slowdown fraction.
	Max float64
}

// Schedule is one deterministic perturbation plan. Any subset of the
// three perturbation families may be active; nil members are off.
type Schedule struct {
	// Seed drives every pseudo-random choice the schedule makes.
	Seed int64
	// Brownout, Links and Ramp enable the three perturbation families.
	Brownout *Brownout
	Links    *LinkFault
	Ramp     *Ramp

	// name is the spec this schedule was parsed from, for String.
	name string
}

// Registry names accepted by Parse (before an optional "@<seed>"
// suffix).
const (
	// NameNone is the empty schedule: Parse returns nil.
	NameNone = "none"
	// NameBrownout is the canonical mid-run brownout: one seed-chosen
	// processor runs 3x slower for the middle third of the run.
	NameBrownout = "brownout"
	// NameLinks degrades each link with probability 0.2 per window,
	// quadrupling its wire time.
	NameLinks = "links"
	// NameRamp ramps per-processor background load up to +80% at the
	// final iteration.
	NameRamp = "ramp"
	// NameChaos combines probabilistic brownouts, link degradation and
	// the background ramp.
	NameChaos = "chaos"
)

// Names returns the schedule names Parse accepts, in presentation order.
// Each may be suffixed "@<seed>" to change the schedule's seed
// (default 1).
func Names() []string {
	return []string{NameNone, NameBrownout, NameLinks, NameRamp, NameChaos}
}

// Parse resolves a schedule spec — a name from Names, optionally
// suffixed "@<seed>" — to a Schedule. The empty spec and NameNone
// resolve to nil (no perturbation).
func Parse(spec string) (*Schedule, error) {
	name, seedStr, hasSeed := strings.Cut(strings.TrimSpace(spec), "@")
	seed := int64(1)
	if hasSeed {
		v, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad seed in spec %q: %v", spec, err)
		}
		seed = v
	}
	var s *Schedule
	switch name {
	case "", NameNone:
		if hasSeed {
			return nil, fmt.Errorf("fault: spec %q seeds the empty schedule", spec)
		}
		return nil, nil
	case NameBrownout:
		s = &Schedule{Brownout: &Brownout{Factor: 3}}
	case NameLinks:
		s = &Schedule{Links: &LinkFault{Prob: 0.2, Factor: 4}}
	case NameRamp:
		s = &Schedule{Ramp: &Ramp{Max: 0.8}}
	case NameChaos:
		s = &Schedule{
			Brownout: &Brownout{Prob: 0.15, Factor: 2.5},
			Links:    &LinkFault{Prob: 0.2, Factor: 4},
			Ramp:     &Ramp{Max: 0.8},
		}
	default:
		return nil, fmt.Errorf("fault: unknown schedule %q (known: %v, each optionally @<seed>)", name, Names())
	}
	s.Seed = seed
	s.name = strings.TrimSpace(spec)
	return s, nil
}

// Model wraps a base interconnect model in a perturbation schedule bound
// to one run shape. It implements netmodel.TimeVarying; its epoch-less
// Model methods answer for epoch 0, the unperturbed initialization
// phase. A Model is immutable after Wrap and safe for concurrent use.
// Every perturbed price is a pure function of (epoch, endpoints, size,
// send time), so a schedule — speed-ups included — needs no cooperation
// from the kernel that runs it.
type Model struct {
	base         netmodel.Model
	sched        Schedule
	procs, iters int
	// from and until bound the windowed brownout to iterations
	// [from, until): the middle third of the run, at least one iteration.
	from, until int
	// brownLen and linkLen are the probabilistic brownout and link-fault
	// window lengths in iterations: iters/8 and iters/6, at least 1.
	brownLen, linkLen int
	// brownRank is the one processor a windowed brownout slows: the rank
	// with the smallest seed hash, ties to the lower rank.
	brownRank int
}

// Wrap binds schedule s to a run of iters iterations over procs
// processors on the base model, deriving the windows and the browned-out
// rank from the run shape and the seed. A nil schedule is an error —
// callers express "no perturbation" by not wrapping.
func Wrap(base netmodel.Model, s *Schedule, procs, iters int) (*Model, error) {
	if base == nil {
		return nil, fmt.Errorf("fault: nil base model")
	}
	if s == nil {
		return nil, fmt.Errorf("fault: nil schedule (omit the wrapper for an unperturbed run)")
	}
	if procs < 1 {
		return nil, fmt.Errorf("fault: procs must be >= 1, got %d", procs)
	}
	if iters < 1 {
		return nil, fmt.Errorf("fault: iterations must be >= 1, got %d", iters)
	}
	sched := *s
	if b := sched.Brownout; b != nil {
		bb := *b
		if bb.Factor <= 0 {
			return nil, fmt.Errorf("fault: brownout factor must be positive, got %g", bb.Factor)
		}
		if bb.Prob < 0 || bb.Prob > 1 {
			return nil, fmt.Errorf("fault: brownout probability %g outside [0,1]", bb.Prob)
		}
		sched.Brownout = &bb
	}
	if l := sched.Links; l != nil {
		ll := *l
		if ll.Factor <= 0 {
			return nil, fmt.Errorf("fault: link factor must be positive, got %g", ll.Factor)
		}
		if ll.Prob < 0 || ll.Prob > 1 {
			return nil, fmt.Errorf("fault: link probability %g outside [0,1]", ll.Prob)
		}
		sched.Links = &ll
	}
	if r := sched.Ramp; r != nil {
		if r.Max < 0 {
			return nil, fmt.Errorf("fault: ramp max must be >= 0, got %g", r.Max)
		}
		rr := *r
		sched.Ramp = &rr
	}
	// On runs too short for a middle third, at least one iteration browns
	// out.
	from := iters/3 + 1
	m := &Model{
		base: base, sched: sched, procs: procs, iters: iters,
		from: from, until: max(from+1, 2*iters/3+1),
		brownLen: max(1, iters/8), linkLen: max(1, iters/6),
	}
	best := hash3(sched.Seed, saltBrownRank, 0, 0)
	for r := 1; r < procs; r++ {
		if h := hash3(sched.Seed, saltBrownRank, r, 0); h < best {
			best, m.brownRank = h, r
		}
	}
	return m, nil
}

// Hash salts keep the three perturbation families' pseudo-random draws
// independent of one another.
const (
	saltBrownRank = 1
	saltBrownWin  = 2
	saltRamp      = 3
	saltLink      = 4
)

// mix64 is the SplitMix64 finalizer: a cheap, well-diffusing 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash3 hashes (seed, salt, a, b) by chaining the mixer; fixed arity
// keeps the per-message pricing path allocation-free.
func hash3(seed int64, salt, a, b int) uint64 {
	x := mix64(uint64(seed) + uint64(salt)*0x9e3779b97f4a7c15)
	x = mix64(x + uint64(int64(a)))
	return mix64(x + uint64(int64(b)))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// cpuFactor is the processor's effective execution-time multiplier at
// epoch: brownout factor (if a window is active for rank) times the
// background ramp. Epoch 0 — initialization — is never perturbed.
func (m *Model) cpuFactor(epoch, rank int) float64 {
	if epoch < 1 {
		return 1
	}
	f := 1.0
	if b := m.sched.Brownout; b != nil {
		switch {
		case b.Prob > 0:
			if unit(hash3(m.sched.Seed, saltBrownWin, rank, (epoch-1)/m.brownLen)) < b.Prob {
				f *= b.Factor
			}
		case rank == m.brownRank && epoch >= m.from && epoch < m.until:
			f *= b.Factor
		}
	}
	if r := m.sched.Ramp; r != nil && r.Max > 0 {
		rate := unit(hash3(m.sched.Seed, saltRamp, rank, 0)) * r.Max
		f *= 1 + rate*float64(epoch)/float64(m.iters)
	}
	return f
}

// linkFactor is the wire-time multiplier for the (src, dst) link at
// epoch; links are unordered pairs, so degradation is symmetric.
func (m *Model) linkFactor(epoch, src, dst int) float64 {
	l := m.sched.Links
	if l == nil || epoch < 1 || src == dst {
		return 1
	}
	a, b := src, dst
	if a > b {
		a, b = b, a
	}
	if unit(hash3(m.sched.Seed, saltLink, a*m.procs+b, (epoch-1)/m.linkLen)) < l.Prob {
		return l.Factor
	}
	return 1
}

// ArrivalTimeAt implements netmodel.TimeVarying: the base model's wire
// time scaled by the link's degradation factor at the message's epoch.
// The wire portion is recovered as ArrivalTime(src, dst, 0, nbytes),
// which assumes the base model prices arrival as sendStart + wire — true
// of every shipped model (Uniform and Topology); when no degradation is
// active the base model answers directly, bit-identically to an
// unwrapped run.
func (m *Model) ArrivalTimeAt(epoch, src, dst int, sendStart float64, nbytes int) float64 {
	f := m.linkFactor(epoch, src, dst)
	if f == 1 {
		return m.base.ArrivalTime(src, dst, sendStart, nbytes)
	}
	wire := m.base.ArrivalTime(src, dst, 0, nbytes)
	return sendStart + wire*f
}

// SendOverheadAt implements netmodel.TimeVarying: a browned-out or
// ramped processor also injects messages more slowly.
func (m *Model) SendOverheadAt(epoch, rank int) float64 {
	return m.base.SendOverhead(rank) * m.cpuFactor(epoch, rank)
}

// RecvOverheadAt implements netmodel.TimeVarying.
func (m *Model) RecvOverheadAt(epoch, rank int) float64 {
	return m.base.RecvOverhead(rank) * m.cpuFactor(epoch, rank)
}

// SpeedAt implements netmodel.TimeVarying: the base machine's relative
// speed times the perturbation's CPU factor.
func (m *Model) SpeedAt(epoch, rank int) float64 {
	return m.base.Speed(rank) * m.cpuFactor(epoch, rank)
}

// ArrivalTime implements netmodel.Model for epoch 0 (unperturbed).
func (m *Model) ArrivalTime(src, dst int, sendStart float64, nbytes int) float64 {
	return m.base.ArrivalTime(src, dst, sendStart, nbytes)
}

// SendOverhead implements netmodel.Model for epoch 0.
func (m *Model) SendOverhead(rank int) float64 { return m.base.SendOverhead(rank) }

// RecvOverhead implements netmodel.Model for epoch 0.
func (m *Model) RecvOverhead(rank int) float64 { return m.base.RecvOverhead(rank) }

// Speed implements netmodel.Model for epoch 0.
func (m *Model) Speed(rank int) float64 { return m.base.Speed(rank) }

// Validate implements netmodel.Model: the base model must serve procs
// ranks and the wrapper must have been built for at least that many
// (link hashing indexes pairs by the wrapped processor count).
func (m *Model) Validate(procs int) error {
	if procs > m.procs {
		return fmt.Errorf("fault: schedule wrapped for %d processors, need %d", m.procs, procs)
	}
	return m.base.Validate(procs)
}

// String implements netmodel.Model: the schedule spec over the base
// model's name, e.g. "brownout(hypercube)".
func (m *Model) String() string {
	name := m.sched.name
	if name == "" {
		name = "fault"
	}
	return name + "(" + m.base.String() + ")"
}
