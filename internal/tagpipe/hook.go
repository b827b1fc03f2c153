package tagpipe

import (
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
)

// The producer: machine.StepHook plus the shift package's host-effect
// notifications. Everything here runs on the execution goroutine. The
// mapping from opcodes to records mirrors oracle.PostStep rule for rule;
// the difference is that the result is a 24-byte record in a batch
// instead of an immediate shadow update.

// PreStep captures the pre-state the record needs: effective addresses
// and compare values may be overwritten by the instruction itself.
func (p *Pipeline) PreStep(m *machine.Machine, ins *isa.Instruction) {
	p.squashed = ins.Qp != 0 && !m.PR[ins.Qp]
	if p.squashed {
		return
	}
	switch ins.Op {
	case isa.OpLd, isa.OpSt, isa.OpStSpill, isa.OpLdFill:
		p.addr = uint64(m.GR[ins.Src1])
	case isa.OpLdS:
		p.addr = uint64(m.GR[ins.Src1])
		// Recompute the defer decision independently of the machine,
		// exactly as the oracle does.
		p.deferred = m.NaT[ins.Src1] || m.Mem.CheckAccess(p.addr, int(ins.Size)) != nil
	case isa.OpCmpxchg:
		p.addr = uint64(m.GR[ins.Src1])
		p.ccvPre = m.CCV
		p.xchgOld = 0
		for i := 0; i < int(ins.Size); i++ {
			b, fault := m.Mem.Peek(p.addr + uint64(i))
			if fault != nil {
				break // the access will trap; PostStep never runs
			}
			p.xchgOld |= uint64(b) << (8 * i)
		}
	case isa.OpSyscall:
		p.r8 = m.GR[isa.RegRet]
		p.r8NaT = m.NaT[isa.RegRet]
	}
}

// authoritative mirrors the oracle's rule for stores the instrumentation
// pass follows with a tag-bitmap update.
func (p *Pipeline) authoritative(ins *isa.Instruction) bool {
	return p.cfg.Instrumented && !ins.ABI && ins.Class == isa.ClassOrig
}

// PostStep resolves the retired instruction into a record and emits it.
// Syscalls and taken chk.s recoveries are policy sinks and synchronize
// instead. A divergence latched by an earlier batch is returned here.
func (p *Pipeline) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	if p.failure != nil {
		return p.failureErr(m)
	}
	if ins.Op == isa.OpSyscall {
		return p.syscallBoundary(m, ins)
	}
	if ins.Op == isa.OpChkS {
		if !p.squashed && m.NaT[ins.Src1] {
			// Taken recovery: the policy verdict (alert vs recover) was
			// rendered during the branch — apply the batch so it stood
			// on fully propagated state, and surface any failure it
			// exposed.
			p.drain()
			return p.failureErr(m)
		}
		return nil
	}
	if p.squashed {
		return nil
	}

	r := rec{
		op:   ins.Op,
		dest: ins.Dest,
		s1:   ins.Src1,
		s2:   ins.Src2,
		size: ins.Size,
		tid:  int32(m.TID),
		pc:   int32(m.PC),
	}
	switch ins.Op {
	case isa.OpAdd, isa.OpAnd, isa.OpAndcm, isa.OpOr,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpRem:
		r.kind = rUnion2

	case isa.OpSub, isa.OpXor:
		// Self-clearing idioms: the result is data-independent.
		if ins.Src1 == ins.Src2 {
			r.kind = rClear
		} else {
			r.kind = rUnion2
		}

	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari, isa.OpMov:
		r.kind = rCopy

	case isa.OpMovl, isa.OpMovFromBr, isa.OpMovFromUnat:
		r.kind = rClear

	case isa.OpLd:
		r.kind = rLoad
		r.addr = p.addr

	case isa.OpLdS:
		r.kind = rLoadSpec
		r.addr = p.addr
		if p.deferred {
			r.flags |= fDeferred
		}

	case isa.OpLdFill:
		r.kind = rLoadFill
		r.addr = p.addr
		r.size = 8

	case isa.OpSt:
		r.kind = rStore
		r.addr = p.addr

	case isa.OpStSpill:
		r.kind = rStore
		r.addr = p.addr
		r.size = 8

	case isa.OpCmpxchg:
		r.kind = rCmpxchg
		r.addr = p.addr
		if p.xchgOld == p.ccvPre {
			r.flags |= fCommitted
		}

	case isa.OpMovToCcv:
		r.kind = rCcvSet

	case isa.OpMovFromCcv:
		r.kind = rCcvGet

	case isa.OpSetNat, isa.OpClrNat:
		r.kind = rNatOnly

	default:
		// Branches, compares, tnat, nop: no taint flow and no written GR.
		return nil
	}
	switch r.kind {
	case rStore, rCmpxchg:
		if p.authoritative(ins) {
			r.flags |= fAuth
		}
	}
	if r.kind != rStore && r.kind != rCcvSet &&
		r.dest != isa.RegZero && m.NaT[r.dest] {
		r.flags |= fNatAfter
	}
	p.emit(r)
	return nil
}

// syscallBoundary is the main sink: apply the batch, run the boundary
// checks the oracle runs at a syscall (register sweep skipping r8, full
// bitmap sweep for non-squashed calls), then apply the syscall's own
// r8 propagation rule directly to the committed state.
func (p *Pipeline) syscallBoundary(m *machine.Machine, ins *isa.Instruction) error {
	p.drain()
	if err := p.failureErr(m); err != nil {
		return err
	}
	if p.st.checking && ins.Class == isa.ClassOrig {
		if d := p.st.flushCheck(m, ins.String(), int(isa.RegRet), &p.Stats); d != nil {
			return p.latchErr(m, d)
		}
		if !p.squashed {
			if d := p.st.sweep(p.cfg.Tags, m, ins.String(), &p.Stats); d != nil {
				return p.latchErr(m, d)
			}
		}
	}
	if p.squashed {
		return nil
	}
	rs := p.st.regs(int32(m.TID))
	// The OS wrote its result (if any) through r8 with NaT clear; a
	// syscall that left r8 alone preserves taint.
	if m.GR[isa.RegRet] != p.r8 || m.NaT[isa.RegRet] != p.r8NaT {
		rs.taint[isa.RegRet] = false
	}
	if p.st.checking && m.NaT[isa.RegRet] && !rs.taint[isa.RegRet] {
		return p.latchErr(m, &oracle.Divergence{
			Kind: oracle.DivRegister, TID: m.TID, PC: m.PC, Ins: ins.String(),
			Reg: isa.RegRet, Machine: true, Shadow: false,
		})
	}
	return nil
}

// Host effects are sinks too: the OS model touches guest state
// mid-syscall, so the pipeline applies its batch and then the effect
// directly to the committed shadow — exactly where it falls in
// retirement order.

// HostWrite records that the OS wrote n bytes of host data at addr.
// Tags are sticky under SHIFT's OS model; a hidden unit the OS
// overwrites adopts its bitmap bit once and is checked from then on.
func (p *Pipeline) HostWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	p.drain()
	p.st.hostWrite(p.cfg.Tags, addr, uint64(n))
}

// HostTaint records that the OS marked [addr, addr+n) as a taint source.
func (p *Pipeline) HostTaint(addr, n uint64) {
	if n == 0 {
		return
	}
	p.drain()
	p.st.hostSet(addr, n, true)
}

// HostUntaint records that the OS explicitly cleared tags over
// [addr, addr+n).
func (p *Pipeline) HostUntaint(addr, n uint64) {
	if n == 0 {
		return
	}
	p.drain()
	p.st.hostSet(addr, n, false)
}

// OnSpawn records a thread creation: the child inherits its argument
// taint from the parent's argument slot. Under UnsafePreempt the strong
// checks stand down from the first spawn, mirroring the oracle.
func (p *Pipeline) OnSpawn(parentTID, childTID int) {
	p.drain()
	parent := p.st.regs(int32(parentTID))
	child := p.st.regs(int32(childTID))
	child.taint[isa.RegArg0] = parent.taint[isa.RegArg0+1]
	if p.cfg.UnsafePreempt {
		p.st.concurrent = true
		p.st.checking = false
	}
}

// SyncSink implements the shift package's sink synchronization: a
// policy check is about to render a verdict, so the batch must be
// applied first.
func (p *Pipeline) SyncSink(m *machine.Machine, sink string) error {
	p.drain()
	return p.failureErr(m)
}
