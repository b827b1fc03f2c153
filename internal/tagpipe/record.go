package tagpipe

import "shift/internal/isa"

// Record flags.
const (
	fNatAfter  uint8 = 1 << iota // machine NaT bit of dest after retirement
	fDeferred                    // ld.s: recomputed defer decision
	fCommitted                   // cmpxchg: the compare matched, the store happened
	fAuth                        // store is authoritative (tag-update expected)
)

// rec is one retirement-log record: the instruction's transfer kind
// (isa.Flow, the self-clearing idiom already resolved) plus the
// pre-state facts the lockstep oracle would have captured (effective
// address, defer decision, commit outcome, authority), flattened into
// 24 bytes with no pointers, so the batch is reused with zero garbage
// and the consumer never re-decodes opcodes. fNatAfter snapshots the
// machine's NaT bit of dest for the mechanical rule checks.
type rec struct {
	kind  isa.Flow
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
