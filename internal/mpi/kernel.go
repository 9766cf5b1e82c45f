package mpi

import (
	"fmt"
	"strings"
)

// Kernel selects the execution engine that drives the ranks of a World.
// All kernels implement the same Comm API and — by construction — the
// same virtual timeline: every clock advance is a pure function of
// message content and per-rank program order, never of host scheduling,
// so the kernels are bit-identical and differ only in host-side cost.
// There are three names over two engines: event and pevent share one
// scheduler and differ in worker count.
type Kernel int

const (
	// KernelGoroutine is the original engine: one goroutine per rank,
	// channel-free mailboxes guarded by mutex+cond, all ranks runnable
	// concurrently. Best host-time at small worlds; memory and scheduler
	// pressure grow with rank count.
	KernelGoroutine Kernel = iota
	// KernelEvent is the event-driven engine (pevent.go) on one worker:
	// ranks are passive states on runtime coroutines, resumed by a
	// scheduler in the order they were woken (a run queue of ranks — no
	// virtual time takes part in scheduling), with slab-allocated message
	// envelopes instead of per-rank mailbox locks.
	// Exactly one rank runs at a time, and the simulation scales to tens
	// of thousands of ranks with flat memory per rank.
	KernelEvent
	// KernelParallelEvent is the same engine run in parallel: ranks are
	// partitioned across min(GOMAXPROCS, procs) workers (see
	// Options.Workers), each owning a private run queue and message slab.
	// Workers run concurrently until each is out of runnable ranks, staging
	// cross-worker sends into per-worker lanes merged at the window fold;
	// none waits for another's virtual time (pevent.go says why none has
	// to). At one worker it is KernelEvent.
	KernelParallelEvent
)

// Kernel names accepted by ParseKernel and used in Params/CLI plumbing,
// in Kernel-constant order.
const (
	KernelNameGoroutine     = "goroutine"
	KernelNameEvent         = "event"
	KernelNameParallelEvent = "pevent"
)

// kernelNames indexes names by Kernel value — the single source both
// String and ParseKernel (and every CLI usage string built from
// KernelNames) derive from, so a new kernel cannot drift out of help
// text or error messages.
var kernelNames = [...]string{
	KernelGoroutine:     KernelNameGoroutine,
	KernelEvent:         KernelNameEvent,
	KernelParallelEvent: KernelNameParallelEvent,
}

// String returns the kernel's CLI/Params name.
func (k Kernel) String() string {
	if k >= 0 && int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ParseKernel resolves a kernel name ("" means the default goroutine
// kernel, preserving every pre-kernel configuration unchanged).
func ParseKernel(name string) (Kernel, error) {
	if name == "" {
		return KernelGoroutine, nil
	}
	for k, n := range kernelNames {
		if name == n {
			return Kernel(k), nil
		}
	}
	return 0, fmt.Errorf("mpi: unknown kernel %q (want %s)", name, strings.Join(KernelNames(), ", "))
}

// KernelNames returns the accepted kernel names, in default-first order.
func KernelNames() []string {
	out := make([]string, len(kernelNames))
	copy(out, kernelNames[:])
	return out
}
