package mpi

import (
	"fmt"
	"strings"
)

// Kernel names a worker count for the one engine that drives the ranks of
// a World (pevent.go); Workers is the rule. Every clock advance is a pure
// function of message content and per-rank program order, never of host
// scheduling, so every name and worker count is bit-identical and differs
// only in host-side cost. The three names are kept, accepted and echoed
// for good: they are part of every persisted CellKey, report, snapshot
// and manifest. internal/scenario resolves a name to its worker count,
// so a platform run carries the count alone; Run applies the rule to
// Options.Kernel for callers that still set it.
type Kernel int

const (
	// KernelGoroutine is the default: the requested worker count. The name
	// is older than the engine; it once meant one goroutine per rank.
	KernelGoroutine Kernel = iota
	// KernelEvent is one worker, whatever the requested count: exactly one
	// rank runs at a time, on the caller's goroutine.
	KernelEvent
	// KernelParallelEvent is the requested worker count, like
	// KernelGoroutine.
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

// Workers is the worker count the kernel name stands for, given the host's
// requested count n (0 means min(GOMAXPROCS, procs)): 1 for KernelEvent,
// n for the other two.
func (k Kernel) Workers(n int) int {
	if k == KernelEvent {
		return 1
	}
	return n
}

// KernelNames returns the accepted kernel names, in default-first order.
func KernelNames() []string {
	out := make([]string, len(kernelNames))
	copy(out, kernelNames[:])
	return out
}
