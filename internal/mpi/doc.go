// Package mpi is an in-process SPMD message-passing runtime that stands in
// for MPI in this reproduction of the iC2mpi platform.
//
// The original system ran as MPI processes on an SGI Origin 2000. Pure-Go,
// stdlib-only code has no viable MPI bindings, so this package executes the
// same single-program-multiple-data structure with ranks as passive states
// on runtime coroutines, which a scheduler on one or several host workers
// resumes in wake order (pevent.go; Options.Workers is the worker count,
// and the virtual timeline is the same at every count). Point-to-point operations (Isend, Recv),
// collectives (Barrier, Bcast, Gather, Allgather and the typed BcastInts
// and GatherFloat64) and Wtime mirror the MPI calls the platform
// makes (Fig. 8, Fig. 8a and the load balancer of Section 4.3). No call
// reports whether a message has been queued yet, so
// nothing a program can observe depends on the host schedule. Fig. 8a's
// MPI_Irecv/MPI_Wait pair has no counterpart: a receive completes at the
// later of the receiver's time and the message's arrival wherever it is
// issued, so a Recv after the overlapped computation is that pair.
//
// There is one clock, and it is virtual: every rank owns a vtime.Clock.
// Computation charged with Comm.Charge and message transfer priced by a
// netmodel.Model (per-pair arrival times — uniform, hypercube, mesh, fat
// tree — plus per-rank overheads) advance the clocks; matching receives
// synchronize receiver time with message arrival time; collectives
// synchronize all participants. The resulting timeline is deterministic and
// independent of the host's goroutine scheduling, which is what lets a
// 1-CPU machine reproduce 16-processor speedup curves. Nothing in this
// package reads the host's clock. Stats additionally reports per-rank
// message counters and IdleSeconds, the accumulated clock fast-forward
// spent waiting — the raw material of the trace subsystem's idle-time
// series.
//
// See the "virtual-clock determinism contract" section of
// docs/architecture.md for the invariants this runtime guarantees and what
// additions to it must preserve.
package mpi
