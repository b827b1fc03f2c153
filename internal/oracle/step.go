package oracle

import (
	"shift/internal/isa"
	"shift/internal/machine"
)

// Pre is the pre-state a taint interpretation of one instruction needs,
// captured before it executes: effective addresses and compare values
// may be overwritten by the instruction itself. The oracle and the
// decoupled tag pipeline capture it with the same PreStep.
type Pre struct {
	Squashed bool     // the qualifying predicate is false
	Kind     isa.Flow // ins.Flow(), set unless Squashed
	Addr     uint64   // effective address of a memory access
	Deferred bool     // ld.s: independently recomputed defer decision
	CCVPre   uint64   // cmpxchg: ar.ccv before the exchange
	XchgOld  uint64   // cmpxchg: the memory value it saw (Dest may be r0)
	R8       int64    // syscall: r8 before the call
	R8NaT    bool     // syscall: r8's NaT bit before the call
}

// PreStep captures the pre-state of ins on m. It has the signature of
// machine.StepHook's PreStep, so a hook that embeds a Pre (the tag
// pipeline) takes it as its own without a call of its own per
// retirement.
func (p *Pre) PreStep(m *machine.Machine, ins *isa.Instruction) {
	p.Squashed = ins.Qp != 0 && !m.PR[ins.Qp]
	if p.Squashed {
		return
	}
	p.Kind = ins.Flow()
	switch p.Kind {
	case isa.FlowLoad, isa.FlowFill, isa.FlowStore:
		p.Addr = uint64(m.GR[ins.Src1])
	case isa.FlowLoadSpec:
		p.Addr = uint64(m.GR[ins.Src1])
		// Recompute the defer decision independently of the machine: a
		// speculative load defers exactly when its address register
		// carries a token or the access itself would fault.
		p.Deferred = m.NaT[ins.Src1] || m.Mem.CheckAccess(p.Addr, int(ins.Size)) != nil
	case isa.FlowCmpxchg:
		p.Addr = uint64(m.GR[ins.Src1])
		p.CCVPre = m.CCV
		// Peek the old value here: Dest may be r0, which discards it.
		p.XchgOld = 0
		for i := 0; i < int(ins.Size); i++ {
			b, fault := m.Mem.Peek(p.Addr + uint64(i))
			if fault != nil {
				break // the access will trap; PostStep never runs
			}
			p.XchgOld |= uint64(b) << (8 * i)
		}
	case isa.FlowNone:
		if ins.Op == isa.OpSyscall {
			p.R8 = m.GR[isa.RegRet]
			p.R8NaT = m.NaT[isa.RegRet]
		}
	}
}

// Authoritative reports whether a store is one the instrumentation pass
// follows with a tag-bitmap update: an original-program store in an
// instrumented build. ABI register-preservation stores and
// instrumentation-emitted stores (red-zone spills, tag-byte writes)
// bypass the bitmap by design.
func Authoritative(instrumented bool, ins *isa.Instruction) bool {
	return instrumented && !ins.ABI && ins.Class == isa.ClassOrig
}

// PreStep implements machine.StepHook: capture the instruction's
// pre-state for PostStep.
func (o *Oracle) PreStep(m *machine.Machine, ins *isa.Instruction) {
	o.regs(m.TID).pre.PreStep(m, ins)
}

// setReg writes a register's shadow taint, preserving r0 == clean.
func setReg(rs *regShadow, r uint8, t bool) {
	if r == isa.RegZero {
		return
	}
	rs.taint[r] = t
}

// PostStep implements machine.StepHook: run the boundary cross-checks,
// then interpret the retired instruction against the shadow state, then
// check the mechanical NaT rules for the written register.
func (o *Oracle) PostStep(m *machine.Machine, ins *isa.Instruction) error {
	o.Stats.Steps++
	rs := o.regs(m.TID)
	// The register ins writes, if any: its Dest (setnat and clrnat
	// write the NaT bit), or r8 for a syscall, the OS model's
	// return-value convention.
	dest := -1
	switch {
	case ins.Op.HasDest():
		dest = int(ins.Dest)
	case ins.Op == isa.OpSyscall:
		dest = isa.RegRet
	}

	// An original instruction marks the previous instrumentation block
	// complete: queued tag-update checks and the register NaT-vs-shadow
	// sweep are sound here. The register this instruction just wrote is
	// skipped — its own block (the taint add after a load) is still
	// open — and is covered at the next boundary.
	if o.checking() && ins.Class == isa.ClassOrig {
		if err := o.flush(m, ins, dest); err != nil {
			return err
		}
		if ins.Op == isa.OpSyscall && !rs.pre.Squashed {
			// Syscall boundary: the OS model has read guest memory and
			// mirrored its writes; the whole visible bitmap must agree.
			if err := o.sweep(m, ins); err != nil {
				return err
			}
		}
	}
	if rs.pre.Squashed {
		return nil
	}

	pre := &rs.pre
	switch pre.Kind {
	case isa.FlowUnion:
		setReg(rs, ins.Dest, rs.taint[ins.Src1] || rs.taint[ins.Src2])

	case isa.FlowCopy:
		setReg(rs, ins.Dest, rs.taint[ins.Src1])

	case isa.FlowClear:
		setReg(rs, ins.Dest, false)

	case isa.FlowLoad:
		// A plain load always clears NaT. Check the rule held.
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: true, Shadow: false})
		}
		setReg(rs, ins.Dest, o.loadTaint(pre.Addr, ins.AccessSize()))

	case isa.FlowLoadSpec:
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] != pre.Deferred {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: m.NaT[ins.Dest], Shadow: pre.Deferred})
		}
		// A deferral token counts as taint: the boundary check (NaT ==
		// taint) stays an equality, and a chk.s-less consume of the
		// deferral is flagged exactly like a taint consume.
		t := true
		if !pre.Deferred {
			t = o.loadTaint(pre.Addr, ins.AccessSize())
		}
		setReg(rs, ins.Dest, t)

	case isa.FlowFill:
		// The fill's NaT comes from UNAT, which the oracle deliberately
		// does not model.
		setReg(rs, ins.Dest, o.loadTaint(pre.Addr, ins.AccessSize()))

	case isa.FlowStore:
		o.setMem(pre.Addr, ins.AccessSize(), rs.taint[ins.Src2], Authoritative(o.cfg.Instrumented, ins))

	case isa.FlowCmpxchg:
		if ins.Dest != isa.RegZero && m.NaT[ins.Dest] {
			return o.fail(m, ins, Divergence{Kind: DivNaTRule, Reg: ins.Dest, Machine: true, Shadow: false})
		}
		// The instrumentation pass follows an original cmpxchg with a
		// tag-update sequence (closing the paper's §4.4 gap), so the
		// units are checked against the bitmap like any store's.
		old := o.loadTaint(pre.Addr, ins.AccessSize())
		if pre.XchgOld == pre.CCVPre {
			o.setMem(pre.Addr, ins.AccessSize(), rs.taint[ins.Src2], Authoritative(o.cfg.Instrumented, ins))
		}
		setReg(rs, ins.Dest, old)

	case isa.FlowCcvSet:
		rs.ccv = rs.taint[ins.Src1]

	case isa.FlowCcvGet:
		setReg(rs, ins.Dest, rs.ccv)

	case isa.FlowSetNat, isa.FlowClrNat:
		// No data flows, so no shadow change. The NaT-implies-taint
		// check below still applies to setnat on an original register.

	case isa.FlowNone:
		if ins.Op == isa.OpSyscall {
			// The OS wrote its result (if any) through r8 with NaT
			// clear; host data is clean unless a source marked it, which
			// arrives via HostTaint. A syscall that left r8 alone
			// preserves taint.
			if m.GR[isa.RegRet] != pre.R8 || m.NaT[isa.RegRet] != pre.R8NaT {
				rs.taint[isa.RegRet] = false
			}
		}
	}

	// No original-program register may carry a NaT token the shadow
	// cannot account for. This is the per-instruction direction of the
	// register cross-check; full equality holds only at boundaries.
	if o.checking() {
		if dest >= 1 && dest < FirstReservedReg && m.NaT[dest] && !rs.taint[dest] {
			return o.fail(m, ins, Divergence{Kind: DivRegister, Reg: uint8(dest), Machine: true, Shadow: false})
		}
	}
	return nil
}
