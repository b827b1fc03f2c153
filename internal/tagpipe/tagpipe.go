// Package tagpipe is the decoupled tag pipeline: asynchronous shadow
// taint propagation over a retirement log, the software analogue of the
// paper's separate tag-datapath argument and of the trace-fed DIFT
// coprocessor line of work.
//
// The execution engine (producer) emits one compact record per retired
// instruction — the instruction's taint-transfer function plus the
// pre-state the lockstep oracle would have captured — into a bounded
// ring of segments. A single committer goroutine applies the records to
// the committed shadow state in retirement order. Policy-relevant sinks
// (syscalls, chk.s recoveries, host effects on guest memory) are
// synchronization points: the producer drains the ring, so every
// verdict is rendered against fully propagated state.
//
// The lag between execution and propagation is bounded by the ring:
// Segments × SegRecords records. Within that window the mechanical NaT
// rules and the NaT-implies-taint check keep per-record granularity
// (the producer snapshots the machine facts into the record); the
// register-equality and bitmap cross-checks run at sink granularity
// rather than at every original-instruction boundary — see DESIGN.md
// "Decoupled tag pipeline" for why the verdicts still agree with the
// inline lockstep oracle.
package tagpipe

import (
	"sync"
	"sync/atomic"

	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// Config selects what the pipeline tracks and how it is provisioned.
// The first three fields mirror oracle.Config — the pipeline renders the
// same verdicts, just asynchronously.
type Config struct {
	// Tags is the tag bitmap under test; nil disables bitmap cross-checks.
	Tags *taint.Space
	// Instrumented states that the guest maintains tags; false keeps only
	// the mechanical NaT-rule checks.
	Instrumented bool
	// UnsafePreempt mirrors machine.Machine.UnsafePreempt: the strong
	// checks stand down once a second thread spawns.
	UnsafePreempt bool
	// SegRecords is the record capacity of one ring segment (default 256).
	SegRecords int
	// Segments is the ring depth in segments (default 64). The lag window
	// is Segments × SegRecords records; a producer that gets further ahead
	// stalls until the committer frees a segment.
	Segments int
}

// Stats are the pipeline's own counters, all safe for concurrent access:
// the producer and the committer update them from their own goroutines.
type Stats struct {
	Records    atomic.Uint64 // retirement-log records emitted
	Segments   atomic.Uint64 // segments submitted
	Stalls     atomic.Uint64 // producer waits for a free segment
	Drains     atomic.Uint64 // sink synchronizations
	DirectSegs atomic.Uint64 // segments applied record-by-record (every applied segment)
	RegChecks  atomic.Uint64 // register boundary comparisons at sinks
	UnitChecks atomic.Uint64 // bitmap unit comparisons at sinks
	Sweeps     atomic.Uint64 // syscall/final bitmap sweeps
}

// Pipeline is the decoupled tag engine. It implements machine.StepHook
// (the producer side), the shift package's HostEffects interface, and
// its SinkSyncer extension. Producer-side methods must be called from
// the execution goroutine only.
type Pipeline struct {
	cfg Config
	st  *state

	// Producer scratch for the instruction in flight (one goroutine, one
	// instruction at a time — mirrors the oracle's per-thread pre-state,
	// collapsed because the scheduler never preempts mid-instruction).
	squashed bool
	addr     uint64
	deferred bool
	ccvPre   uint64
	xchgOld  uint64
	r8       int64
	r8NaT    bool

	cur       *segment // partial segment being filled
	submitted uint64   // segments submitted so far (drain target)

	free chan *segment // recycled segments, capacity = ring depth
	// work carries full segments to the committer in retirement order.
	// Its capacity is also the ring depth, so a submit never blocks: the
	// producer already holds one of the ring's segments.
	work chan *segment

	mu      sync.Mutex
	cond    *sync.Cond
	applied uint64 // segments applied (or skipped, after a failure)
	failure *oracle.Divergence
	failed  atomic.Bool

	producedRecs atomic.Uint64
	appliedRecs  atomic.Uint64

	committerDone chan struct{}
	closed        bool

	Stats Stats
}

// New builds and starts a pipeline and its committer goroutine. Close
// must be called to stop it.
func New(cfg Config) *Pipeline {
	if cfg.SegRecords <= 0 {
		cfg.SegRecords = 256
	}
	if cfg.Segments <= 0 {
		cfg.Segments = 64
	}
	p := &Pipeline{
		cfg:           cfg,
		st:            newState(cfg),
		free:          make(chan *segment, cfg.Segments),
		work:          make(chan *segment, cfg.Segments),
		committerDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Segments; i++ {
		p.free <- &segment{recs: make([]rec, 0, cfg.SegRecords)}
	}
	go p.committer()
	return p
}

// Attach installs the pipeline as the machine's step hook.
func (p *Pipeline) Attach(m *machine.Machine) {
	m.Hook = p
}

// Divergence returns the first divergence found, or nil.
func (p *Pipeline) Divergence() *oracle.Divergence {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failure
}

// Lag reports how many retired records are still awaiting propagation.
func (p *Pipeline) Lag() uint64 {
	pr, ap := p.producedRecs.Load(), p.appliedRecs.Load()
	if ap >= pr {
		return 0
	}
	return pr - ap
}

// Close stops the committer, applying everything already submitted.
// Records still in the partial producer segment are submitted first so
// counters reconcile. Idempotent; producer-goroutine only.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.flushSeg()
	close(p.work)
	<-p.committerDone
}

// Finish drains the ring and runs the final sink checks (register sweep
// + bitmap sweep) after a clean halt, mirroring oracle.Finish. Call it
// once execution has halted without a trap, before Close.
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

// grab takes a free segment, counting a stall when the ring is full and
// the producer has to wait for the committer.
func (p *Pipeline) grab() *segment {
	select {
	case s := <-p.free:
		return s
	default:
		p.Stats.Stalls.Add(1)
		return <-p.free
	}
}

// emit appends one record, submitting the segment when it fills.
func (p *Pipeline) emit(r rec) {
	if p.cur == nil {
		p.cur = p.grab()
	}
	p.cur.recs = append(p.cur.recs, r)
	if len(p.cur.recs) >= p.cfg.SegRecords {
		p.flushSeg()
	}
}

// flushSeg submits the partial segment, if any.
func (p *Pipeline) flushSeg() {
	if p.cur == nil || len(p.cur.recs) == 0 {
		return
	}
	p.submitted++
	n := uint64(len(p.cur.recs))
	p.producedRecs.Add(n)
	p.Stats.Records.Add(n)
	p.Stats.Segments.Add(1)
	p.work <- p.cur
	p.cur = nil
}

// drain submits the partial segment and blocks until everything
// submitted has been applied (or skipped, after a failure) — the sink
// synchronization point. On return the committed state is quiescent and
// the producer may read and mutate it directly: the cond wait under mu
// establishes the happens-before edge with the committer's writes.
func (p *Pipeline) drain() {
	p.Stats.Drains.Add(1)
	p.flushSeg()
	target := p.submitted
	p.mu.Lock()
	for p.applied < target {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// failureErr returns the latched divergence as the PostStep error,
// rendering the shadow snapshot lazily (producer goroutine, machine
// quiescent — the committer cannot touch the machine).
func (p *Pipeline) failureErr(m *machine.Machine) error {
	p.mu.Lock()
	d := p.failure
	p.mu.Unlock()
	if d == nil {
		return nil
	}
	if d.Snapshot == "" {
		d.Snapshot = p.st.snapshot(m)
	}
	return d
}

// latchErr records a producer-side (sink check) divergence, keeping the
// first one if the committer raced one in.
func (p *Pipeline) latchErr(m *machine.Machine, d *oracle.Divergence) error {
	d.Snapshot = p.st.snapshot(m)
	p.mu.Lock()
	if p.failure == nil {
		p.failure = d
		p.failed.Store(true)
	}
	d = p.failure
	p.mu.Unlock()
	return d
}

// committer applies segments in submission (retirement) order. After a
// failure it keeps recycling segments (skipping the apply) so the
// producer's drains and stalls always terminate.
func (p *Pipeline) committer() {
	defer close(p.committerDone)
	for seg := range p.work {
		p.commit(seg)
	}
}

// commit applies one segment's records in order, publishes the applied
// count, and recycles the segment.
func (p *Pipeline) commit(seg *segment) {
	var d *oracle.Divergence
	if !p.failed.Load() {
		p.Stats.DirectSegs.Add(1)
		for i := range seg.recs {
			if d = p.st.applyRec(&seg.recs[i]); d != nil {
				break
			}
		}
	}
	p.appliedRecs.Add(uint64(len(seg.recs)))
	seg.recs = seg.recs[:0]
	p.mu.Lock()
	if d != nil && p.failure == nil {
		p.failure = d
		p.failed.Store(true)
	}
	p.applied++
	p.cond.Broadcast()
	p.mu.Unlock()
	p.free <- seg
}
