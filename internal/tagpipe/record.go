package tagpipe

import "shift/internal/isa"

// recKind is the semantic class of one retirement-log record. The
// producer resolves each retired instruction into one of these at
// emission time, so the consumers never re-decode opcodes: a record is
// the instruction's taint-transfer function plus the pre-state the
// lockstep oracle would have captured (effective address, defer
// decision, commit outcome), flattened into a fixed-size struct.
type recKind uint8

const (
	// rUnion2: dest's taint becomes taint(s1) | taint(s2) (two-source
	// ALU ops; the self-clearing xor/sub idiom is resolved to rClear by
	// the producer, mirroring the oracle's special case).
	rUnion2 recKind = iota
	// rCopy: dest's taint becomes taint(s1) (immediate ALU forms, mov).
	rCopy
	// rClear: dest's taint becomes clean (movl, mov-from-br/unat,
	// self-clearing xor/sub).
	rClear
	// rLoad: a plain load; dest's taint is the OR over the accessed
	// units. Carries the fNatAfter bit for the mechanical rule check (a
	// plain load must leave NaT clear).
	rLoad
	// rLoadSpec: a speculative load; fDeferred carries the producer's
	// independent recomputation of the defer decision, fNatAfter what
	// the machine actually did.
	rLoadSpec
	// rLoadFill: ld8.fill; taint comes straight from the spilled unit
	// (the UNAT mechanics are deliberately not modelled, as in the
	// oracle).
	rLoadFill
	// rStore: st/st8.spill; the accessed units take taint(s2). fAuth
	// marks an authoritative (original-program, instrumented) store
	// whose units the bitmap is expected to agree on at the next sweep.
	rStore
	// rCmpxchg: dest takes the location's old taint; when fCommitted is
	// set the exchange also stores taint(s2) into the units.
	rCmpxchg
	// rCcvSet / rCcvGet: the ar.ccv shadow taint.
	rCcvSet
	rCcvGet
	// rNatOnly: no taint flow (setnat/clrnat); the record exists only so
	// the NaT-implies-taint suspect check runs at the right stream
	// position.
	rNatOnly
)

// Record flags.
const (
	fNatAfter  uint8 = 1 << iota // machine NaT bit of dest after retirement
	fDeferred                    // ld.s: recomputed defer decision
	fCommitted                   // cmpxchg: the compare matched, the store happened
	fAuth                        // store is authoritative (tag-update expected)
)

// rec is one retirement-log record: 24 bytes, no pointers, so the batch
// is reused with zero garbage.
type rec struct {
	kind  recKind
	op    isa.Opcode // for divergence reports only
	flags uint8
	dest  uint8
	s1    uint8
	s2    uint8
	size  uint8
	_     uint8
	tid   int32
	pc    int32
	addr  uint64
}
