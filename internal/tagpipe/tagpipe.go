// Package tagpipe is the decoupled tag pipeline: shadow taint
// propagation over a batched retirement log, checked at policy sinks —
// the software analogue of the paper's separate tag-datapath argument and
// of the trace-fed DIFT coprocessor line of work.
//
// Record now, check at sinks. The execution engine (producer) reduces
// each retired instruction to one compact record — the instruction's
// taint-transfer kind from isa's opcode table plus the pre-state the
// lockstep oracle captures — and appends it to a fixed batch of records. The batch
// is applied to the committed shadow state in retirement order, on the
// execution goroutine, whenever it fills and at every policy-relevant
// sink (syscalls, taken chk.s recoveries, host effects on guest memory,
// spawns), so every verdict is rendered against fully propagated state.
//
// The mechanical NaT rules and the NaT-implies-taint check keep
// per-record granularity (the producer snapshots the machine facts into
// the record) and surface within one batch; the register-equality and
// bitmap cross-checks run at sink granularity rather than at every
// original-instruction boundary — see DESIGN.md "Decoupled tag pipeline"
// for why the verdicts still agree with the inline lockstep oracle.
package tagpipe

import (
	"sync/atomic"

	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// batchRecs is the record capacity of the pipeline's batch: the longest
// a broken per-record rule can go unnoticed between sinks.
const batchRecs = 256

// Config selects what the pipeline tracks. The fields mirror
// oracle.Config — the pipeline renders the same verdicts, checked at
// sinks instead of at every instruction.
type Config struct {
	// Tags is the tag bitmap under test; nil disables bitmap cross-checks.
	Tags *taint.Space
	// Instrumented states that the guest maintains tags; false keeps only
	// the mechanical NaT-rule checks.
	Instrumented bool
	// UnsafePreempt mirrors machine.Machine.UnsafePreempt: the strong
	// checks stand down once a second thread spawns.
	UnsafePreempt bool
}

// Stats are the pipeline's own counters. They are atomic because a
// metrics registry may read them from its own goroutine mid-run.
type Stats struct {
	Records    atomic.Uint64 // retirement-log records emitted
	Segments   atomic.Uint64 // non-empty batches applied (or dropped after a divergence)
	Stalls     atomic.Uint64 // always 0; kept for cmd/shiftperf's tagpipe.stalls
	Drains     atomic.Uint64 // sink synchronizations
	DirectSegs atomic.Uint64 // batches applied record-by-record (every applied batch)
	RegChecks  atomic.Uint64 // register boundary comparisons at sinks
	UnitChecks atomic.Uint64 // bitmap unit comparisons at sinks
	Sweeps     atomic.Uint64 // syscall/final bitmap sweeps
}

// Pipeline is the decoupled tag engine. It implements machine.StepHook
// (the producer side), the shift package's HostEffects interface, and
// its SinkSyncer extension. All methods run on the execution goroutine.
type Pipeline struct {
	cfg Config
	st  *state

	// Pre is the pre-state of the instruction in flight (one goroutine,
	// one instruction at a time — the oracle's per-thread pre-state,
	// collapsed because the scheduler never preempts mid-instruction).
	// Its PreStep is the pipeline's machine.StepHook PreStep.
	oracle.Pre

	batch   []rec              // records retired since the last apply
	failure *oracle.Divergence // first divergence, latched

	Stats Stats
}

// New builds a pipeline.
func New(cfg Config) *Pipeline {
	return &Pipeline{
		cfg:   cfg,
		st:    newState(cfg),
		batch: make([]rec, 0, batchRecs),
	}
}

// Attach installs the pipeline as the machine's step hook.
func (p *Pipeline) Attach(m *machine.Machine) {
	m.Hook = p
}

// Divergence returns the first divergence found, or nil.
func (p *Pipeline) Divergence() *oracle.Divergence {
	return p.failure
}

// Close applies the batched tail, so Stats reconcile on runs that
// trapped before Finish.
func (p *Pipeline) Close() {
	p.flush()
}

// Finish applies the batch and runs the final sink checks (register
// sweep + bitmap sweep) after a clean halt, mirroring oracle.Finish.
func (p *Pipeline) Finish(m *machine.Machine) error {
	p.drain()
	if err := p.failureErr(m); err != nil {
		return err
	}
	if !p.st.checking {
		return nil
	}
	if d := p.st.flushCheck(m, "finish", -1, &p.Stats); d != nil {
		return p.latchErr(m, d)
	}
	if d := p.st.sweep(p.cfg.Tags, m, "finish", &p.Stats); d != nil {
		return p.latchErr(m, d)
	}
	return nil
}

// emit appends one record, applying the batch when it fills.
func (p *Pipeline) emit(r rec) {
	p.batch = append(p.batch, r)
	if len(p.batch) == batchRecs {
		p.flush()
	}
}

// flush applies the batched records in retirement order, stopping at the
// first divergence. Once a divergence is latched, batches are dropped
// unapplied: the run is already failing.
func (p *Pipeline) flush() {
	n := len(p.batch)
	if n == 0 {
		return
	}
	p.Stats.Records.Add(uint64(n))
	p.Stats.Segments.Add(1)
	if p.failure == nil {
		p.Stats.DirectSegs.Add(1)
		for i := range p.batch {
			if d := p.st.applyRec(&p.batch[i]); d != nil {
				p.failure = d
				break
			}
		}
	}
	p.batch = p.batch[:0]
}

// drain is the sink synchronization point: it applies the batch, after
// which the committed state is up to date with execution.
func (p *Pipeline) drain() {
	p.Stats.Drains.Add(1)
	p.flush()
}

// failureErr returns the latched divergence as the PostStep error,
// rendering the shadow snapshot lazily.
func (p *Pipeline) failureErr(m *machine.Machine) error {
	d := p.failure
	if d == nil {
		return nil
	}
	if d.Snapshot == "" {
		d.Snapshot = p.st.snapshot(m)
	}
	return d
}

// latchErr records a sink-check divergence. Sink checks run only after
// failureErr found nothing latched, so d is the first divergence.
func (p *Pipeline) latchErr(m *machine.Machine, d *oracle.Divergence) error {
	d.Snapshot = p.st.snapshot(m)
	p.failure = d
	return d
}
