// Package trace records per-iteration execution telemetry from a platform
// run: what the paper's time-series figures plot, rather than the
// end-of-run aggregates of platform.Result.
//
// A Recorder is attached to a run through platform.Host.Trace. Per
// iteration and per processor it captures the compute, overhead,
// communicate and idle virtual time, message and byte counters, every
// executed task migration (source, destination, estimated benefit), and a
// derived per-iteration series: the load imbalance ratio and the live
// edge-cut of the evolving partition.
//
// Because the platform runs on deterministic virtual clocks, a trace is a
// pure function of the configuration: the same run always produces a
// byte-identical encoding (WriteJSONL, WriteCSV), which golden-file tests
// pin. The recorder is allocation-conscious — Start preallocates every
// per-iteration slot, and the per-rank record path writes into disjoint
// preallocated slots, taking a lock only while the recorder is followed
// live (Follow) — so tracing never perturbs the simulated timeline. Its
// host-side cost is the benchmark's trace.record_overhead_pct row (heat,
// 16 procs, 50 iterations, with and without a recorder): a median of
// 1.3 % over three traced runs on a 2-vCPU host, against 18.7 % when rank
// 0 recounted the whole edge cut every iteration instead of keeping it
// current from each migration (docs/benchmarks.md).
//
// See the "Telemetry & docgen" section of docs/architecture.md for where
// in the run loop each event is emitted.
package trace

import (
	"fmt"
	"sync"
)

// Sample is one (iteration, processor) telemetry record. All times are
// virtual seconds accumulated during that iteration (summed over
// sub-phases).
type Sample struct {
	// Iter is the 1-based iteration.
	Iter int `json:"iter"`
	// Proc is the processor rank.
	Proc int `json:"proc"`
	// ComputeS is node-computation time (the grain).
	ComputeS float64 `json:"compute_s"`
	// OverheadS is platform bookkeeping time: list forming, data-list
	// updates, buffer packing and unpacking.
	OverheadS float64 `json:"overhead_s"`
	// CommS is shadow-exchange time (send dispatch plus receive completion,
	// including any wait).
	CommS float64 `json:"comm_s"`
	// IdleS is the portion of this iteration the processor spent waiting:
	// virtual time its clock was fast-forwarded to a message arrival or a
	// barrier release. It is included in, not additional to, CommS and
	// BalanceS.
	IdleS float64 `json:"idle_s"`
	// BalanceS is load-balancing and task-migration time.
	BalanceS float64 `json:"balance_s"`
	// MsgsSent and MsgsRecv count messages this iteration.
	MsgsSent int `json:"msgs_sent"`
	MsgsRecv int `json:"msgs_recv"`
	// BytesSent and BytesRecv count payload bytes this iteration.
	BytesSent int `json:"bytes_sent"`
	BytesRecv int `json:"bytes_recv"`
	// SpeedFactor is the processor's effective execution-time multiplier
	// this iteration on a time-varying (perturbed) machine: the base
	// machine speed times any active perturbation (see internal/fault).
	// It is 0 when the run's machine is static; JSONL omits the field
	// then, which keeps unperturbed JSONL traces — including the pinned
	// goldens — byte-identical to builds that predate fault injection.
	// CSV always carries its speed_factor column.
	SpeedFactor float64 `json:"speed_factor,omitempty"`
	// WallS is the processor's virtual clock at this iteration's sample
	// point. It exists for the invariant test harness (per-iteration
	// wall-clock deltas must equal the sum of the phase deltas) and is
	// excluded from encodings: the phase deltas already carry the
	// information, and pinned traces stay stable.
	WallS float64 `json:"-"`
}

// Migration is one executed task migration.
type Migration struct {
	// Iter is the iteration whose balancing invocation executed the move.
	Iter int `json:"iter"`
	// Node is the migrated node's global ID.
	Node int `json:"node"`
	// From and To are the source (busy) and destination (idle) processors.
	From int `json:"from"`
	To   int `json:"to"`
	// BenefitS is the estimated benefit: the node's observed per-iteration
	// compute cost that the move transfers from From to To.
	BenefitS float64 `json:"benefit_s"`
}

// Derived is the per-iteration series computed across processors.
type Derived struct {
	// Iter is the 1-based iteration.
	Iter int `json:"iter"`
	// Imbalance is max/mean per-processor compute time this iteration
	// (1.0 = perfectly balanced; 0 when no compute time was recorded).
	Imbalance float64 `json:"imbalance"`
	// EdgeCut is the live edge-cut of the node-to-processor map at the end
	// of the iteration, after any migrations (-1 when not recorded, e.g.
	// for custom runners that have no evolving partition).
	EdgeCut int `json:"edge_cut"`
}

// Recorder collects one run's trace. The zero value is ready: Start sizes
// it for a run, Record* fill it, Finish computes the derived series.
//
// Concurrency: Start and Finish must be called outside the run (the
// platform calls them before ranks launch and after they join). Each
// RecordSample writes the preallocated slot (Iter, Proc) and may be called
// concurrently from different ranks; RecordMigration and RecordEdgeCut
// must only be called from rank 0 (the platform does).
type Recorder struct {
	procs, iters int
	samples      []Sample
	series       []Derived
	migrations   []Migration

	// The live release (Follow). mu is taken only while live is set; it
	// guards the fields below and the migrations and edge cuts a release reads.
	live     func(kind string, line []byte)
	mu       sync.Mutex
	counts   []int // samples recorded per iteration
	rank0    int   // iterations rank 0 has sampled
	released int   // iterations handed to live
	nextMig  int   // migrations handed to live
}

// Follow hands live each iteration's canonical JSONL lines — the exact
// WriteJSONL bytes, newline stripped, tagged with their kind — as soon
// as the iteration is final, while the run is still executing. Iteration
// i is final once every rank's sample for it is in and rank 0 has sampled
// i+1: rank 0 records its sample after balancing and its edge cut right
// after the sample, so i's migrations and edge cut are settled by then.
// Finish releases the last iteration. live is called under the
// recorder's lock, one iteration at a time, in iteration order. Set it
// before the run; nil stops following.
func (r *Recorder) Follow(live func(kind string, line []byte)) { r.live = live }

// Start sizes the recorder for a run of procs processors over iters
// iterations, discarding any previous run's data. The platform calls it
// from Run; call it directly only when driving a Recorder by hand.
func (r *Recorder) Start(procs, iters int) {
	r.procs, r.iters = procs, iters
	n := procs * iters
	if cap(r.samples) < n {
		r.samples = make([]Sample, n)
	}
	r.samples = r.samples[:n]
	if cap(r.series) < iters {
		r.series = make([]Derived, iters)
	}
	r.series = r.series[:iters]
	r.counts = append(r.counts[:0], make([]int, iters)...) // zeroed, reusing capacity
	clear(r.samples)
	for i := range r.series {
		r.series[i] = Derived{Iter: i + 1, EdgeCut: -1}
	}
	r.migrations = r.migrations[:0]
	r.rank0, r.released, r.nextMig = 0, 0, 0
}

// Restore reloads rows recorded up to iteration boundary iter from a
// checkpoint: the per-(iteration, processor) samples for iterations
// 1..iter, the executed migrations in iteration order, and the
// per-iteration edge cuts; it is the one check of a snapshot's trace rows.
// Like Start it must be called outside the run (the platform calls it
// after Start, before it builds any rank). The restored
// iterations count as recorded, so a followed resumed run releases them
// with its first live iteration and streams exactly the uninterrupted
// run's lines. A subsequent Finish derives the full series exactly as an
// uninterrupted run would.
func (r *Recorder) Restore(iter int, samples []Sample, migrations []Migration, edgeCuts []int) error {
	if iter < 0 || iter > r.iters {
		return fmt.Errorf("trace: Restore(iter=%d) outside Start(%d, %d)", iter, r.procs, r.iters)
	}
	if len(samples) != iter*r.procs {
		return fmt.Errorf("trace: Restore got %d samples for %d iterations of %d procs", len(samples), iter, r.procs)
	}
	if len(edgeCuts) != iter {
		return fmt.Errorf("trace: Restore got %d edge cuts for %d iterations", len(edgeCuts), iter)
	}
	for i, s := range samples {
		if want := (i/r.procs + 1); s.Iter != want || s.Proc != i%r.procs {
			return fmt.Errorf("trace: Restore sample %d labeled (iter=%d, proc=%d), want (%d, %d)",
				i, s.Iter, s.Proc, want, i%r.procs)
		}
	}
	for i, m := range migrations {
		if m.Iter < 1 || m.Iter > iter || i > 0 && m.Iter < migrations[i-1].Iter {
			return fmt.Errorf("trace: Restore migration %d at iteration %d is outside 1..%d or out of iteration order", i, m.Iter, iter)
		}
	}
	copy(r.samples, samples)
	for i, cut := range edgeCuts {
		r.series[i].EdgeCut = cut
		r.counts[i] = r.procs
	}
	r.rank0 = iter
	r.migrations = append(r.migrations[:0], migrations...)
	return nil
}

// Procs returns the processor count of the recorded run.
func (r *Recorder) Procs() int { return r.procs }

// Iterations returns the iteration count of the recorded run.
func (r *Recorder) Iterations() int { return r.iters }

// RecordSample stores s in the slot (s.Iter, s.Proc). Safe for concurrent
// calls from different processors.
func (r *Recorder) RecordSample(s Sample) {
	if s.Iter < 1 || s.Iter > r.iters || s.Proc < 0 || s.Proc >= r.procs {
		panic(fmt.Sprintf("trace: RecordSample(iter=%d, proc=%d) outside Start(%d, %d)",
			s.Iter, s.Proc, r.procs, r.iters))
	}
	// The slot is written before the lock, so a release that sees the
	// iteration's count complete also sees the slot.
	r.samples[(s.Iter-1)*r.procs+s.Proc] = s
	if r.live != nil {
		r.mu.Lock()
		r.counts[s.Iter-1]++
		if s.Proc == 0 {
			r.rank0 = s.Iter
		}
		r.release(false)
		r.mu.Unlock()
	}
}

// RecordMigration appends one executed migration. Rank 0 only.
func (r *Recorder) RecordMigration(m Migration) {
	if r.live != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.migrations = append(r.migrations, m)
}

// RecordEdgeCut stores the live edge-cut at the end of iter. Rank 0 only.
func (r *Recorder) RecordEdgeCut(iter, cut int) {
	if iter < 1 || iter > r.iters {
		panic(fmt.Sprintf("trace: RecordEdgeCut(iter=%d) outside Start(%d, %d)", iter, r.procs, r.iters))
	}
	if r.live != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	r.series[iter-1].EdgeCut = cut
}

// imbalance returns the load-imbalance ratio of one iteration's sample
// row: max over mean per-processor compute time (1.0 = perfectly
// balanced; 0 when the row recorded no compute time).
func imbalance(row []Sample) float64 {
	max, sum := 0.0, 0.0
	for _, s := range row {
		if s.ComputeS > max {
			max = s.ComputeS
		}
		sum += s.ComputeS
	}
	if sum <= 0 {
		return 0
	}
	return max * float64(len(row)) / sum
}

// release hands live every consecutive iteration that is final; final
// releases the last one too. Callers hold r.mu. The series line is
// derived into a copy: the checkpoint collector reads r.series without
// the lock while ranks run.
func (r *Recorder) release(final bool) {
	for r.released < r.iters {
		it := r.released + 1
		if r.counts[it-1] < r.procs || (!final && r.rank0 <= it) {
			return
		}
		d := r.series[it-1]
		d.Imbalance = imbalance(r.samples[(it-1)*r.procs : it*r.procs])
		r.writeIteration(it, d, &r.nextMig, func(kind string, line []byte) error {
			r.live(kind, line)
			return nil
		})
		r.released++
	}
}

// Finish computes the derived per-iteration imbalance ratio from the
// recorded samples and, while following, releases what is left. The
// platform calls it after every rank has finished.
func (r *Recorder) Finish() {
	for it := range r.iters {
		r.series[it].Imbalance = imbalance(r.samples[it*r.procs : (it+1)*r.procs])
	}
	if r.live != nil {
		r.mu.Lock()
		r.release(true)
		r.mu.Unlock()
	}
}

// Samples returns the (iteration-major, processor-minor) sample records.
func (r *Recorder) Samples() []Sample { return r.samples }

// Migrations returns the executed migrations in execution order.
func (r *Recorder) Migrations() []Migration { return r.migrations }

// Series returns the per-iteration derived series.
func (r *Recorder) Series() []Derived { return r.series }
