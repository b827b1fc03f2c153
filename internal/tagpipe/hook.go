package tagpipe

import (
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
)

// The producer: machine.StepHook plus the shift package's host-effect
// notifications. Everything here runs on the execution goroutine. The
// PreStep half is the embedded oracle.Pre's, which captures the
// instruction's isa.Flow kind and pre-state; PostStep turns them into a
// record. The oracle reads the same kind and pre-state, but updates its
// shadow immediately instead of appending a record to the batch.

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
		if !p.Pre.Squashed && m.NaT[ins.Src1] {
			// Taken recovery: the policy verdict (alert vs recover) was
			// rendered during the branch — apply the batch so it stood
			// on fully propagated state, and surface any failure it
			// exposed.
			p.drain()
			return p.failureErr(m)
		}
		return nil
	}
	kind := p.Pre.Kind
	if p.Pre.Squashed || kind == isa.FlowNone {
		// Branches, compares, tnat, nop, moves to br/unat: no taint
		// flow and no written GR.
		return nil
	}

	r := rec{
		kind: kind,
		op:   ins.Op,
		dest: ins.Dest,
		s1:   ins.Src1,
		s2:   ins.Src2,
		size: uint8(ins.AccessSize()),
		tid:  int32(m.TID),
		pc:   int32(m.PC),
		addr: p.Pre.Addr,
	}
	switch kind {
	case isa.FlowLoadSpec:
		if p.Pre.Deferred {
			r.flags |= fDeferred
		}
	case isa.FlowCmpxchg:
		if p.Pre.XchgOld == p.Pre.CCVPre {
			r.flags |= fCommitted
		}
	}
	if (kind == isa.FlowStore || kind == isa.FlowCmpxchg) && oracle.Authoritative(p.cfg.Instrumented, ins) {
		r.flags |= fAuth
	}
	// Every emitted kind but store and ccv-set writes dest.
	if kind != isa.FlowStore && kind != isa.FlowCcvSet && r.dest != isa.RegZero && m.NaT[r.dest] {
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
		if !p.Pre.Squashed {
			if d := p.st.sweep(p.cfg.Tags, m, ins.String(), &p.Stats); d != nil {
				return p.latchErr(m, d)
			}
		}
	}
	if p.Pre.Squashed {
		return nil
	}
	rs := p.st.regs(int32(m.TID))
	// The OS wrote its result (if any) through r8 with NaT clear; a
	// syscall that left r8 alone preserves taint.
	if m.GR[isa.RegRet] != p.Pre.R8 || m.NaT[isa.RegRet] != p.Pre.R8NaT {
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
