package instrument

import (
	"fmt"

	"shift/internal/isa"
	"shift/internal/mem"
	"shift/internal/taint"
)

// inserter accumulates the instrumented instruction stream.
type inserter struct {
	opt Options
	out *isa.Program

	// tagFor is the register whose translation rTag/rOff currently
	// hold, or -1. Only meaningful under Options.Optimize.
	tagFor int

	// usedHandler records that a user-level guard was emitted, so the
	// shared handler block must be appended.
	usedHandler bool

	// casN numbers the retry labels of serialized tag updates.
	casN int

	// needNaT and needMask record whether the program actually consumes
	// the NaT-source register r127 and the kept OffsetMask register:
	// generating either with no consumer is dead code the static
	// checker flags as an unconsumed speculative load.
	needNaT  bool
	needMask bool

	// exempt is the output-index set of sites the selective pass left
	// uninstrumented on the reachability analysis' word; the
	// reachability-refined contract check skips exactly these.
	exempt map[int]bool
}

func (in *inserter) copy(src *isa.Instruction) {
	in.out.Text = append(in.out.Text, *src)
}

// skipSite copies src unmodified and records its output index as
// analysis-sanctioned for the reachability-refined contract check.
func (in *inserter) skipSite(src *isa.Instruction) {
	if in.exempt == nil {
		in.exempt = make(map[int]bool)
	}
	in.exempt[len(in.out.Text)] = true
	in.copy(src)
}

// add appends an instrumentation instruction with the given cost class.
func (in *inserter) add(class isa.CostClass, ins isa.Instruction) {
	ins.Class = class
	in.out.Text = append(in.out.Text, ins)
}

// emitNaTGen materialises the NaT-source register r127 (value 0, NaT set)
// by speculatively loading from an invalid address (§4.3, Figure 5), and
// under Optimize also the kept OffsetMask register. Either half is
// skipped when nothing in the program consumes it (setnat replaces the
// r127 reads under the enhancement; a program without loads never
// taints a register).
func (in *inserter) emitNaTGen() {
	if in.needNaT {
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpMovl, Dest: rAddr, Imm: int64(badAddr)})
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpLdS, Dest: rNaT, Src1: rAddr, Size: 8})
	}
	if in.needMask {
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpMovl, Dest: rKeep, Imm: mem.OffsetMask})
	}
}

// emitTagAddr computes the Figure 4 translation: rTag becomes the tag
// byte address of the data address in reg, rOff its implemented offset.
// rBit is clobbered. key identifies the program register whose value the
// translation covers (-1 = not reusable); under Optimize, a translation
// still valid for key is skipped entirely — the "adjacent data" reuse of
// §6.4.
func (in *inserter) emitTagAddr(reg uint8, class isa.CostClass, key int) {
	if in.opt.Optimize && key >= 0 && in.tagFor == key {
		return
	}
	g := in.opt.Gran
	in.add(class, isa.Instruction{Op: isa.OpShri, Dest: rTag, Src1: reg, Imm: mem.RegionShift})
	in.add(class, isa.Instruction{Op: isa.OpShli, Dest: rTag, Src1: rTag, Imm: int64(g.RegionFold())})
	if in.opt.Optimize {
		in.add(class, isa.Instruction{Op: isa.OpAnd, Dest: rOff, Src1: reg, Src2: rKeep})
	} else {
		in.add(class, isa.Instruction{Op: isa.OpMovl, Dest: rOff, Imm: mem.OffsetMask})
		in.add(class, isa.Instruction{Op: isa.OpAnd, Dest: rOff, Src1: reg, Src2: rOff})
	}
	in.add(class, isa.Instruction{Op: isa.OpShri, Dest: rBit, Src1: rOff, Imm: int64(g.DropBits())})
	in.add(class, isa.Instruction{Op: isa.OpOr, Dest: rTag, Src1: rTag, Src2: rBit})
	in.tagFor = key
}

// emitClean strips the NaT bit of reg in place when predicate p is set,
// using clrnat when available and the spill + plain-reload trick
// otherwise (§4.1: "Setting and Clearing NaT-bit"). The spill slot is the
// stack red zone (sp-8): per-thread by construction, so instrumented
// multi-threaded programs never race on it.
func (in *inserter) emitClean(reg uint8, p uint8, class isa.CostClass) {
	if in.opt.Feat.SetClrNaT {
		in.add(class, isa.Instruction{Op: isa.OpClrNat, Qp: p, Dest: reg})
		return
	}
	in.add(class, isa.Instruction{Op: isa.OpAddi, Qp: p, Dest: rAddr, Src1: isa.RegSP, Imm: -8})
	in.add(class, isa.Instruction{Op: isa.OpStSpill, Qp: p, Src1: rAddr, Src2: reg, Size: 8, Imm: unatRelax})
	in.add(class, isa.Instruction{Op: isa.OpLd, Qp: p, Dest: reg, Src1: rAddr, Size: 8})
}

// emitSite gives a kept site its full rewrite: the tag consult of a
// load, the tag update of a store, the relaxation of a compare.
func (in *inserter) emitSite(src *isa.Instruction, permissive bool) {
	switch {
	case src.Op == isa.OpLdS:
		in.emitSpecLoad(src)
	case src.Op == isa.OpCmpxchg:
		in.emitCmpxchg(src, permissive)
	case src.Site() == isa.SiteLoad:
		in.emitLoad(src, permissive)
	case src.Site() == isa.SiteStore:
		in.emitStore(src, permissive)
	default:
		in.emitRelaxedCmp(src)
	}
}

// emitLoad rewrites a load per Figure 5: consult the bitmap and taint the
// destination register when the tag bit is set. In strict mode a tainted
// address faults at the load itself (policy L1); in permissive mode the
// address is cleaned first and taint flows only through the bitmap.
// A non-ABI ld8.fill is handled identically (the original opcode and its
// UNAT bit are preserved): its destination carries the union of the
// filled NaT bit and the location's bitmap state.
func (in *inserter) emitLoad(src *isa.Instruction, permissive bool) {
	sz := src.Size
	g := in.opt.Gran

	// Copy the address: the destination may alias it, and the tag lookup
	// needs it after the data load.
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rAddr2, Src1: src.Src1})
	if permissive {
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpTnat, Qp: src.Qp, P1: pT2, P2: pF2, Src1: rAddr2})
		in.emitClean(rAddr2, pT2, isa.ClassNatGen)
	}

	// The original load, from the (possibly cleaned) address copy.
	orig := *src
	orig.Src1 = rAddr2
	in.out.Text = append(in.out.Text, orig)

	key := int(src.Src1)
	if permissive || src.Dest == src.Src1 {
		// A cleaned address or a destructive ld rd=[rd] invalidates the
		// translation for reuse purposes.
		key = -1
	}
	in.emitTagAddr(rAddr2, isa.ClassLoadCompute, key)
	if src.Dest == src.Src1 {
		in.tagFor = -1
	}
	in.add(isa.ClassLoadTagMem, isa.Instruction{Op: isa.OpLd, Qp: src.Qp, Dest: rVal, Src1: rTag, Size: 1})

	// Extract the tag bit(s) covering [off, off+sz). Word-level tags are
	// whole bytes, so no extraction is needed; a byte-level bitmap must
	// isolate the sz bits of a narrow access (the extra work behind the
	// paper's byte-vs-word gap).
	if g == taint.Byte && sz < 8 {
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Qp: src.Qp, Dest: rBit, Src1: rOff, Imm: 7})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpShr, Qp: src.Qp, Dest: rVal, Src1: rVal, Src2: rBit})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Qp: src.Qp, Dest: rVal, Src1: rVal, Imm: int64(1)<<sz - 1})
	}
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpCmpi, Qp: src.Qp, Cond: isa.CondNE, P1: pT, P2: pF, Src1: rVal, Imm: 0})

	// Taint the destination register.
	if in.opt.Feat.SetClrNaT {
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpSetNat, Qp: pT, Dest: src.Dest})
	} else {
		if in.opt.NaTPerUse {
			// Without a reserved NaT-source register, manufacture the
			// token on the spot by deferring a fault (§4.4's expensive
			// alternative).
			in.emitNaTGen()
		}
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpAdd, Qp: pT, Dest: src.Dest, Src1: src.Dest, Src2: rNaT})
	}
}

// emitSpecLoad rewrites a control-speculative load (ld.s). The original
// deferral semantics are kept intact — a NaT address or an inaccessible
// target manufactures a token instead of faulting, so compiler-hoisted
// loads on misspeculated paths still never trap — but a load that DOES
// return data now consults the bitmap like any other load, closing the
// speculation blind spot: secret (tainted) data reached over a
// bounds-check-bypassed ld.s carries its taint into the register file,
// survives chk.s recovery, and trips the L policies at the leak.
//
// The consult must not observe the deferred case: the tag read and the
// taint decision are predicated on "data arrived" (tnat on the
// destination right after the load — it covers both deferral causes),
// and pT is pre-cleared so the taint-inject add stays off. The tag
// translation of a NaT address is NaT-poisoned garbage, which is
// harmless precisely because everything that would consume it is
// predicated off; the cached translation is invalidated on both sides.
func (in *inserter) emitSpecLoad(src *isa.Instruction) {
	sz := src.Size
	g := in.opt.Gran

	// Copy the address: the destination may alias it, and the tag lookup
	// needs it after the data load. A NaT address propagates silently
	// through the copy, preserving the deferral trigger.
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpMov, Dest: rAddr2, Src1: src.Src1})

	// The original speculative load, from the address copy.
	orig := *src
	orig.Src1 = rAddr2
	in.out.Text = append(in.out.Text, orig)

	// pT2/pF2 = deferred / data arrived; pT pre-cleared.
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpTnat, P1: pT2, P2: pF2, Src1: src.Dest})
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpCmpi, Cond: isa.CondNE, P1: pT, P2: pF, Src1: isa.RegZero, Imm: 0})

	in.emitTagAddr(rAddr2, isa.ClassLoadCompute, -1)
	in.add(isa.ClassLoadTagMem, isa.Instruction{Op: isa.OpLd, Qp: pF2, Dest: rVal, Src1: rTag, Size: 1})
	if g == taint.Byte && sz < 8 {
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Qp: pF2, Dest: rBit, Src1: rOff, Imm: 7})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpShr, Qp: pF2, Dest: rVal, Src1: rVal, Src2: rBit})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Qp: pF2, Dest: rVal, Src1: rVal, Imm: int64(1)<<sz - 1})
	}
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpCmpi, Qp: pF2, Cond: isa.CondNE, P1: pT, P2: pF, Src1: rVal, Imm: 0})

	// Taint the destination register (only on the data-arrived path).
	if in.opt.Feat.SetClrNaT {
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpSetNat, Qp: pT, Dest: src.Dest})
	} else {
		if in.opt.NaTPerUse {
			in.emitNaTGen()
		}
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpAdd, Qp: pT, Dest: src.Dest, Src1: src.Dest, Src2: rNaT})
	}
	in.tagFor = -1
}

// emitStore rewrites a store per Figure 5: test the source's NaT bit,
// perform the store NaT-tolerantly, and update the bitmap.
func (in *inserter) emitStore(src *isa.Instruction, permissive bool) {
	sz := src.Size
	g := in.opt.Gran

	addr := src.Src1
	if permissive {
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rAddr2, Src1: addr})
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpTnat, Qp: src.Qp, P1: pT2, P2: pF2, Src1: rAddr2})
		in.emitClean(rAddr2, pT2, isa.ClassNatGen)
		addr = rAddr2
	}

	// Instruction 1 of Figure 5: test whether the source is tainted.
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpTnat, Qp: src.Qp, P1: pT, P2: pF, Src1: src.Src2})

	if sz == 8 {
		// st8.spill tolerates NaT data directly (Figure 5's choice: "we
		// choose st8.spill instead of st8 to omit additional code"). An
		// original st8.spill keeps its own UNAT bit — the program may
		// pair it with a ld8.fill.
		spillBit := int64(unatStore)
		if src.Op == isa.OpStSpill {
			spillBit = src.Imm
		}
		in.out.Text = append(in.out.Text, isa.Instruction{
			Op: isa.OpStSpill, Qp: src.Qp, Src1: addr, Src2: src.Src2, Size: 8, Imm: spillBit,
		})
	} else {
		// Narrow stores cannot spill; strip the NaT from a copy first.
		// The stripping runs only when the data is actually tainted, so
		// clean-input runs pay just the predicated-off fetch slots.
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rMask, Src1: src.Src2})
		in.emitClean(rMask, pT, isa.ClassNatGen)
		orig := *src
		orig.Src1, orig.Src2 = addr, rMask
		in.out.Text = append(in.out.Text, orig)
	}

	// Tag update. Word level writes its boolean tag byte directly; the
	// byte-level bitmap needs a read-modify-write with a shifted mask
	// covering the sz bits of the access.
	key := int(src.Src1)
	if permissive {
		key = -1
	}
	in.emitTagAddr(addr, isa.ClassStoreCompute, key)
	switch {
	case g.WholeByte():
		// A single store: atomic per instruction, no serialization
		// needed at word granularity.
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rVal, Src1: isa.RegZero})
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAddi, Qp: pT, Dest: rVal, Src1: isa.RegZero, Imm: 1})
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpSt, Qp: src.Qp, Src1: rTag, Src2: rVal, Size: 1})

	case in.opt.SerializedTags:
		in.emitSerializedRMW(sz)

	default:
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpLd, Qp: src.Qp, Dest: rVal, Src1: rTag, Size: 1})
		if sz == 8 {
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpOri, Qp: pT, Dest: rVal, Src1: rVal, Imm: 0xff})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndi, Qp: pF, Dest: rVal, Src1: rVal, Imm: ^int64(0xff)})
		} else {
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndi, Qp: src.Qp, Dest: rBit, Src1: rOff, Imm: 7})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovl, Qp: src.Qp, Dest: rMask, Imm: int64(1)<<sz - 1})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpShl, Qp: src.Qp, Dest: rMask, Src1: rMask, Src2: rBit})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpOr, Qp: pT, Dest: rVal, Src1: rVal, Src2: rMask})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndcm, Qp: pF, Dest: rVal, Src1: rVal, Src2: rMask})
		}
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpSt, Qp: src.Qp, Src1: rTag, Src2: rVal, Size: 1})
	}
}

// handlerSym labels the generated user-level violation handler.
const handlerSym = "__shift.handler"

// emitGuard inserts a chk.s on reg: if it carries a token, control
// transfers to the user-level handler instead of faulting at the use.
func (in *inserter) emitGuard(reg uint8, qp uint8) {
	in.usedHandler = true
	in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpChkS, Qp: qp, Src1: reg, Label: handlerSym})
}

// emitGuardedSyscall guards every scalar argument of a syscall (§3.3.3),
// then emits the syscall itself.
func (in *inserter) emitGuardedSyscall(src *isa.Instruction) {
	for i := 0; i < isa.SyscallArgCount(src.Imm); i++ {
		in.emitGuard(uint8(isa.RegArg0+i), src.Qp)
	}
	in.copy(src)
}

// emitHandler appends the shared user-level handler: it reports the
// violation through a dedicated syscall, at user level, where a real
// deployment could filter false alarms or collect forensics before
// deciding (the paper's motivation for chk.s-based detection).
func (in *inserter) emitHandler() {
	if !in.usedHandler {
		return
	}
	in.out.Symbols[handlerSym] = len(in.out.Text)
	in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpSyscall, Imm: isa.SysUserAlert})
}

// emitSerializedRMW updates sz tag bits at rTag with a lock-free
// ld1/cmpxchg1 retry loop (compare value through ar.ccv), so concurrent
// threads can never lose each other's tag updates. The mask is built once
// outside the loop; pT/pF (the data's tnat result) select set vs clear.
// The guest's own ar.ccv is saved through rAddr and restored afterwards,
// so an original cmpxchg whose compare value was set before the store
// block still sees it. Clobbers rOff, rBit and rAddr, so any cached tag
// translation dies with it.
func (in *inserter) emitSerializedRMW(sz uint8) {
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovFromCcv, Dest: rAddr})
	if sz == 8 {
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovl, Dest: rMask, Imm: 0xff})
	} else {
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndi, Dest: rBit, Src1: rOff, Imm: 7})
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovl, Dest: rMask, Imm: int64(1)<<sz - 1})
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpShl, Dest: rMask, Src1: rMask, Src2: rBit})
	}
	in.casN++
	label := fmt.Sprintf(".shift.cas.%d", in.casN)
	in.out.Symbols[label] = len(in.out.Text)
	in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpLd, Dest: rVal, Src1: rTag, Size: 1})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: rBit, Src1: rVal})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpOr, Qp: pT, Dest: rBit, Src1: rBit, Src2: rMask})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndcm, Qp: pF, Dest: rBit, Src1: rBit, Src2: rMask})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovToCcv, Src1: rVal})
	in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpCmpxchg, Dest: rOff, Src1: rTag, Src2: rBit, Size: 1})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpCmp, Cond: isa.CondNE, P1: pT2, P2: pF2, Src1: rOff, Src2: rVal})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpBr, Qp: pT2, Label: label})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovToCcv, Src1: rAddr})
	// rOff is gone; a cached translation must not be reused.
	in.tagFor = -1
}

// emitCmpxchg rewrites a guest atomic compare-and-exchange under the same
// Figure 5 discipline as loads and stores — the store form the paper's
// §4.4 leaves uninstrumented, so a committed exchange used to leave stale
// tag bits behind. The rewritten block behaves as a load for the
// destination (it is tainted from the OLD tag state of the location) and
// as a store for the bitmap (on a committed exchange the unit's tags are
// set from the new data's NaT bit); a failed compare leaves the bitmap
// untouched. The exchange is retargeted at rAddr so the old value
// survives even when the original destination is r0 — the success test
// for the tag-update branch needs it.
func (in *inserter) emitCmpxchg(src *isa.Instruction, permissive bool) {
	sz := src.Size
	g := in.opt.Gran

	addr := src.Src1
	if permissive {
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: rAddr2, Src1: addr})
		in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpTnat, P1: pT2, P2: pF2, Src1: rAddr2})
		in.emitClean(rAddr2, pT2, isa.ClassNatGen)
		addr = rAddr2
	}

	// Instruction 1 of Figure 5: is the new data tainted? cmpxchg has no
	// spill form, so the stored copy is always NaT-stripped first.
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpTnat, P1: pT, P2: pF, Src1: src.Src2})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: rMask, Src1: src.Src2})
	in.emitClean(rMask, pT, isa.ClassNatGen)

	orig := *src
	orig.Src1, orig.Src2, orig.Dest = addr, rMask, rAddr
	in.out.Text = append(in.out.Text, orig)

	// Old tag state, read before the update: it taints the destination
	// exactly as a load of the location would.
	key := int(src.Src1)
	if permissive {
		key = -1
	}
	in.emitTagAddr(addr, isa.ClassStoreCompute, key)
	in.add(isa.ClassLoadTagMem, isa.Instruction{Op: isa.OpLd, Dest: rVal, Src1: rTag, Size: 1})
	if g == taint.Byte && sz < 8 {
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Dest: rBit, Src1: rOff, Imm: 7})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpShr, Dest: rVal, Src1: rVal, Src2: rBit})
		in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpAndi, Dest: rVal, Src1: rVal, Imm: int64(1)<<sz - 1})
	}
	in.add(isa.ClassLoadCompute, isa.Instruction{Op: isa.OpCmpi, Cond: isa.CondNE, P1: pT2, P2: pF2, Src1: rVal, Imm: 0})

	// Deliver the old value (and its taint) to the original destination.
	// The old value is parked in rBit first: the NaT-per-use ablation
	// regenerates the NaT source with a sequence that clobbers rAddr.
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: rBit, Src1: rAddr})
	if src.Dest != isa.RegZero {
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: src.Dest, Src1: rAddr})
		if in.opt.Feat.SetClrNaT {
			in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpSetNat, Qp: pT2, Dest: src.Dest})
		} else {
			if in.opt.NaTPerUse {
				in.emitNaTGen()
			}
			in.add(isa.ClassNatGen, isa.Instruction{Op: isa.OpAdd, Qp: pT2, Dest: src.Dest, Src1: src.Dest, Src2: rNaT})
		}
	}

	// Did the exchange commit? Only then does the bitmap change.
	in.casN++
	label := fmt.Sprintf(".shift.xchg.%d", in.casN)
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovFromCcv, Dest: rVal})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpCmp, Cond: isa.CondNE, P1: pT2, P2: pF2, Src1: rBit, Src2: rVal})
	in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpBr, Qp: pT2, Label: label})
	switch {
	case g.WholeByte():
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMov, Dest: rVal, Src1: isa.RegZero})
		in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAddi, Qp: pT, Dest: rVal, Src1: isa.RegZero, Imm: 1})
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpSt, Src1: rTag, Src2: rVal, Size: 1})
	case in.opt.SerializedTags:
		in.emitSerializedRMW(sz)
	default:
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpLd, Dest: rVal, Src1: rTag, Size: 1})
		if sz == 8 {
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpOri, Qp: pT, Dest: rVal, Src1: rVal, Imm: 0xff})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndi, Qp: pF, Dest: rVal, Src1: rVal, Imm: ^int64(0xff)})
		} else {
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndi, Dest: rBit, Src1: rOff, Imm: 7})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpMovl, Dest: rMask, Imm: int64(1)<<sz - 1})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpShl, Dest: rMask, Src1: rMask, Src2: rBit})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpOr, Qp: pT, Dest: rVal, Src1: rVal, Src2: rMask})
			in.add(isa.ClassStoreCompute, isa.Instruction{Op: isa.OpAndcm, Qp: pF, Dest: rVal, Src1: rVal, Src2: rMask})
		}
		in.add(isa.ClassStoreTagMem, isa.Instruction{Op: isa.OpSt, Src1: rTag, Src2: rVal, Size: 1})
	}
	in.out.Symbols[label] = len(in.out.Text)
	// The two join paths disagree on the scratch state; drop any cached
	// translation rather than reason about it.
	in.tagFor = -1
}

// emitRelaxedCmp rewrites a NaT-sensitive compare so tainted operands
// compare normally (§3.1, §4.1 "Relaxing NaT-sensitive Instructions").
// With the NaT-aware-compare enhancement the relaxation vanishes into a
// single cmp.na.
func (in *inserter) emitRelaxedCmp(src *isa.Instruction) {
	if in.opt.Feat.NaTAwareCmp {
		na := *src
		if src.Op == isa.OpCmp {
			na.Op = isa.OpCmpNa
		} else {
			na.Op = isa.OpCmpiNa
		}
		in.out.Text = append(in.out.Text, na)
		return
	}

	// Clean a copy of the first operand.
	in.add(isa.ClassRelax, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rAddr2, Src1: src.Src1})
	in.add(isa.ClassRelax, isa.Instruction{Op: isa.OpTnat, Qp: src.Qp, P1: pT, P2: pF, Src1: rAddr2})
	in.emitClean(rAddr2, pT, isa.ClassRelax)

	relaxed := *src
	relaxed.Src1 = rAddr2
	if src.Op == isa.OpCmp {
		in.add(isa.ClassRelax, isa.Instruction{Op: isa.OpMov, Qp: src.Qp, Dest: rMask, Src1: src.Src2})
		in.add(isa.ClassRelax, isa.Instruction{Op: isa.OpTnat, Qp: src.Qp, P1: pT2, P2: pF2, Src1: rMask})
		in.emitClean(rMask, pT2, isa.ClassRelax)
		relaxed.Src2 = rMask
	}
	in.out.Text = append(in.out.Text, relaxed)
}
