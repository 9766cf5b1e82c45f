// Package bsp implements a Bulk Synchronous Parallel programming layer on
// top of the message-passing runtime — the extension the thesis' Section 8
// proposes: "We will also explore extending it to applications that use
// the BSP model [HMS98], as this model essentially divides the computation
// from communication phases as iC2mpi does."
//
// A BSP program is a sequence of supersteps. Within a superstep every
// process computes on local data and posts one-sided Put messages; Sync
// ends the superstep, delivers every message posted during it, and
// returns the received batch. Under the virtual clock the classic BSP cost
// model w + g·h + L emerges naturally from the runtime's per-message
// costs and the barrier synchronization.
package bsp

import (
	"fmt"

	"ic2mpi/internal/mpi"
)

// Message is one delivered Put.
type Message struct {
	// Src is the sending process.
	Src int
	// Tag is the application tag given to Put.
	Tag int
	// Payload is the value put.
	Payload any
}

// Proc is one BSP process's handle, valid only inside Run's body function
// and only on its own goroutine.
type Proc struct {
	comm   *mpi.Comm
	outbox [][]outMsg // per destination, this superstep
	step   int
}

type outMsg struct {
	tag     int
	payload any
	bytes   int
}

const (
	tagBSPCount = 900
	tagBSPData  = 901
)

// Run executes fn as a BSP program across opts.Procs processes and blocks
// until every process returns. A BSP machine is the message-passing
// runtime's: opts.Cost prices Put traffic in virtual clock mode (nil means
// free communication).
func Run(opts mpi.Options, fn func(p *Proc) error) error {
	if opts.Procs < 1 {
		return fmt.Errorf("bsp: Procs must be >= 1, got %d", opts.Procs)
	}
	return mpi.Run(opts, func(c *mpi.Comm) error {
		return fn(&Proc{comm: c, outbox: make([][]outMsg, c.Size())})
	})
}

// Pid returns this process's id in [0, NProcs).
func (p *Proc) Pid() int { return p.comm.Rank() }

// NProcs returns the number of BSP processes.
func (p *Proc) NProcs() int { return p.comm.Size() }

// Step returns the number of completed supersteps.
func (p *Proc) Step() int { return p.step }

// Time returns the process's current (virtual) time in seconds.
func (p *Proc) Time() float64 { return p.comm.Wtime() }

// Stats returns a snapshot of the underlying rank's message counters
// (messages, bytes, idle time), for per-superstep telemetry.
func (p *Proc) Stats() mpi.Stats { return p.comm.Stats() }

// Charge accounts d seconds of local computation to this process (the BSP
// w term).
func (p *Proc) Charge(d float64) { p.comm.Charge(d) }

// Put posts a one-sided message to process dst, delivered at the end of
// the current superstep. bytes sizes the payload for the cost model (the
// BSP h-relation).
func (p *Proc) Put(dst, tag int, payload any, bytes int) error {
	if dst < 0 || dst >= p.NProcs() {
		return fmt.Errorf("bsp: Put to invalid process %d (nprocs %d)", dst, p.NProcs())
	}
	if bytes < 0 {
		return fmt.Errorf("bsp: Put with negative byte count %d", bytes)
	}
	p.outbox[dst] = append(p.outbox[dst], outMsg{tag: tag, payload: payload, bytes: bytes})
	return nil
}

// Sync ends the superstep: all messages posted with Put are exchanged, a
// barrier synchronizes all processes (the BSP L term), and the messages
// received by this process are returned sorted by (Src, posting order),
// or, once Run's Options.Stop is closed, nothing and mpi.ErrStopped.
func (p *Proc) Sync() ([]Message, error) {
	if err := p.comm.Stopped(); err != nil {
		return nil, err
	}
	n := p.NProcs()
	// Exchange per-destination counts so receivers know what to expect;
	// Allgather implements the h-relation's global knowledge exchange.
	counts := make([]int, n)
	for dst := 0; dst < n; dst++ {
		counts[dst] = len(p.outbox[dst])
	}
	allCountsAny, err := p.comm.Allgather(counts, 8*n)
	if err != nil {
		return nil, err
	}
	// Send batches. A batch's backing array is packed again in the next
	// superstep: every receiver copies its batches out below, before it
	// enters the barrier this call ends with, so once the barrier lets this
	// process through nobody reads what it sent — one generation is enough
	// here, where the platform's exchange (no barrier) needs two.
	for dst := 0; dst < n; dst++ {
		if len(p.outbox[dst]) == 0 {
			continue
		}
		batch := p.outbox[dst]
		bytes := 0
		for _, m := range batch {
			bytes += m.bytes + 8
		}
		if err := p.comm.Isend(dst, tagBSPData, batch, bytes); err != nil {
			return nil, err
		}
		p.outbox[dst] = batch[:0]
	}
	// Receive batches from every process that posted to us, in ascending
	// source order: the inbox is built sorted by (Src, posting order).
	expect := 0
	for src := 0; src < n; src++ {
		expect += allCountsAny[src].([]int)[p.Pid()]
	}
	var inbox []Message
	if expect > 0 {
		inbox = make([]Message, 0, expect)
	}
	for src := 0; src < n; src++ {
		srcCounts := allCountsAny[src].([]int)
		if srcCounts[p.Pid()] == 0 {
			continue
		}
		payload, err := p.comm.Recv(src, tagBSPData)
		if err != nil {
			return nil, err
		}
		for _, m := range payload.([]outMsg) {
			inbox = append(inbox, Message{Src: src, Tag: m.tag, Payload: m.payload})
		}
	}
	if err := p.comm.Barrier(); err != nil {
		return nil, err
	}
	p.step++
	return inbox, nil
}
