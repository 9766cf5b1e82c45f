package mpi

import (
	"fmt"
	"strings"
)

// Kernel names a worker count for the one engine that drives the ranks of
// a World (pevent.go): ranks are passive states on runtime coroutines,
// resumed in the order they were woken (a run queue of ranks — no virtual
// time takes part in scheduling), each message stored once, in its
// receiver's queue, so a simulation scales to tens of thousands of ranks
// with flat memory per rank. Every clock advance is a pure function of message content and
// per-rank program order, never of host scheduling, so every name and
// worker count is bit-identical and differs only in host-side cost. The
// three names are kept, accepted and echoed for good: they are part of
// every persisted CellKey, report, snapshot and manifest.
type Kernel int

const (
	// KernelGoroutine is the default: the engine at Options.Workers
	// workers, min(GOMAXPROCS, procs) when that is 0. The name is older
	// than the engine; it once meant one goroutine per rank.
	KernelGoroutine Kernel = iota
	// KernelEvent is the engine on one worker, whatever Options.Workers
	// says: exactly one rank runs at a time, on the caller's goroutine.
	KernelEvent
	// KernelParallelEvent is the engine at Options.Workers workers, like
	// KernelGoroutine: ranks are partitioned across the workers, each
	// owning a private run queue and outbox. Workers run concurrently
	// until each is out of runnable ranks, staging cross-worker sends in
	// their outboxes, which the window fold delivers; none waits for
	// another's virtual time (pevent.go says why none has to). At one
	// worker it is KernelEvent.
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

// ParseKernel resolves a kernel name ("" means KernelGoroutine, the
// default, preserving every pre-kernel configuration unchanged).
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
