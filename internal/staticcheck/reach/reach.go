// Package reach implements a whole-program static taint-reachability
// analysis over an uninstrumented isa.Program: for every instruction it
// answers "can this site ever touch tainted data?", so the SHIFT pass
// (internal/instrument, Options.Selective) can leave provably
// taint-unreachable loads, stores and compares in their original
// encoding — no tag consult, no tag update, no clean-before-compare
// relaxation — the selective-tracking direction HardTaint argues brings
// production DIFT overhead down.
//
// The analysis reuses the contract checker's instruction-level CFG
// (staticcheck.BuildGraph: fall/jump/call/return/indirect/chk.s edges)
// and the same worklist-fixpoint shape as its NaT dataflow, but over a
// richer lattice:
//
//   - an abstract memory partitioned into objects: one per data-segment
//     symbol (extents delimited by the sorted symbol addresses), one for
//     the stack region, one for the sbrk heap, and an "unknown" top that
//     any unmodelled address may alias;
//   - a flow-insensitive, monotone set M of may-tainted objects, seeded
//     by the syscalls that mark taint at run time (read/recv/getarg per
//     their policy channels, and the unconditional taint() syscall) and
//     grown by stores of may-tainted registers;
//   - flow-sensitive per-register facts: a may-taint bit (the register
//     may carry a NaT token under full instrumentation) and a points-to
//     set over the abstract objects, propagated through moves,
//     arithmetic (the allocation-site rule: pointer ± scalar stays in
//     its object), loads, calls and returns.
//
// Widening rules keep the analysis conservative: dereferencing a
// register with no pointer provenance widens to the unknown object;
// adding two pointer-carrying registers yields unknown; a tainted store
// through an unknown pointer taints all of memory; loads from unknown
// return unknown pointers; across a call's return edge every
// non-preserved register is assumed tainted (when the program has any
// taint seed) with unknown provenance; unresolved indirect branches
// already reach every label in the shared CFG. The outer loop reruns
// the register fixpoint until M, the per-object escaped-pointer sets
// and the register states are simultaneously stable.
//
// Soundness rests on two contracts, both documented in
// docs/STATIC_ANALYSIS.md: the code generator's calling convention
// (callee-saved locals r40..r107, SP and GP are restored with their NaT
// bits intact via ld8.fill/UNAT; everything else is treated as
// clobbered), and memory-safe addressing at object granularity (an
// out-of-bounds access computed from a *tainted* index faults at the
// access itself either way; one computed from a clean index is outside
// the threat model, exactly the paper's §3.3.2 assumption). The
// equivalence and mutation suites in internal/shift back both
// empirically.
package reach

import (
	"math/bits"
	"sort"
	"strings"

	"shift/internal/isa"
	"shift/internal/mem"
	"shift/internal/staticcheck"
	"shift/internal/taint"
)

// Config parameterizes the analysis.
type Config struct {
	// Sources enables taint channels ("file", "stdin", "network",
	// "args") exactly as policy.Config.Sources gates markTaint at run
	// time. nil enables every channel (most conservative). The taint()
	// syscall always seeds — the OS model does not gate it.
	Sources map[string]bool
	// Gran is the tracking granularity the instrumentation will use.
	// Objects are coarser than either unit size, so it only affects
	// reporting, never a decision.
	Gran taint.Granularity
	// Permissive names functions whose memory-access address registers
	// the pass cleans before use (§3.3.2): inside them a skipped access
	// whose address may be tainted would fault where full
	// instrumentation does not, so such sites must stay instrumented.
	Permissive map[string]bool
}

// ptrUnknown is the top of the points-to lattice: the value may address
// any object. The low bits index the object table.
const ptrUnknown = uint64(1) << 63

// maxDataObjs caps per-symbol data objects; programs with more symbols
// fold the tail into the last object (sound: coarser aliasing).
const maxDataObjs = 61

// rstate is the flow-sensitive fact at an instruction: which registers
// may carry taint (a NaT token under full instrumentation) and what
// each may point to.
type rstate struct {
	live  bool
	taint staticcheck.RegSet
	ptr   [isa.NumGR]uint64
}

func meet(x, y rstate) rstate {
	if !x.live {
		return y
	}
	if !y.live {
		return x
	}
	r := rstate{live: true, taint: x.taint.Or(y.taint)}
	for i := range r.ptr {
		r.ptr[i] = x.ptr[i] | y.ptr[i]
	}
	return r
}

// Fact is the per-instruction may-touch-taint result. Only
// instrumentation sites (isa.Site) carry the taint fields.
type Fact struct {
	// Live: the instruction is reachable with some register state. Dead
	// sites are trivially taint-free (and trivially skippable: they
	// never execute).
	Live bool
	// AddrTaint: the address register of a memory access may be NaT.
	AddrTaint bool
	// MemTaint: the addressed location may carry taint (its object is
	// in the may-tainted set, or the address has no modelled target).
	MemTaint bool
	// DataTaint: the stored data register may be NaT (stores, cmpxchg).
	DataTaint bool
	// OpTaint: a compare operand may be NaT.
	OpTaint bool
}

// Analysis is the solved whole-program result.
type Analysis struct {
	prog *isa.Program
	cfg  Config
	g    *staticcheck.Graph

	// Abstract object table: objLo[i] is the start address of data
	// object i (objLo[0] == DataBase); the last extends to dataEnd.
	objLo    []uint64
	dataEnd  uint64
	stackBit uint64 // points-to bit of the stack object
	heapBit  uint64 // points-to bit of the sbrk heap object
	nObj     int    // data objects + stack + heap

	tainted    uint64   // M: may-tainted object bitset
	allTainted bool     // a tainted store escaped through unknown
	objPtrs    []uint64 // pointer sets that may have been stored per object
	dirty      bool     // a global fact grew this round
	hasSpawn   bool
	rounds     int

	in    []rstate
	perm  []bool // pc is inside a Permissive function
	facts []Fact
}

// Analyze runs the fixpoint and returns the solved analysis.
func Analyze(p *isa.Program, cfg Config) *Analysis {
	a := &Analysis{prog: p, cfg: cfg, g: staticcheck.BuildGraph(p)}
	a.buildObjects()
	a.scanProgram()
	for {
		a.rounds++
		a.dirty = false
		a.solveRegs()
		if !a.dirty {
			break
		}
		if a.rounds >= 64 {
			// Safety valve for adversarial inputs: give up on
			// precision, assume all of memory tainted, settle once.
			a.allTainted = true
			a.dirty = false
			a.solveRegs()
			a.rounds++
			break
		}
	}
	a.decide()
	return a
}

// buildObjects partitions the address space: one object per
// data-segment symbol interval, one stack object, one heap object.
func (a *Analysis) buildObjects() {
	p := a.prog
	a.dataEnd = p.DataBase + uint64(len(p.Data))
	var starts []uint64
	for _, addr := range p.DataSymbols {
		if addr >= p.DataBase && addr < a.dataEnd {
			starts = append(starts, addr)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	a.objLo = a.objLo[:0]
	if len(p.Data) > 0 {
		a.objLo = append(a.objLo, p.DataBase)
	}
	for _, s := range starts {
		if n := len(a.objLo); n > 0 && a.objLo[n-1] == s {
			continue
		}
		if len(a.objLo) >= maxDataObjs {
			break // fold the tail into the last object
		}
		a.objLo = append(a.objLo, s)
	}
	nData := len(a.objLo)
	a.stackBit = 1 << uint(nData)
	a.heapBit = 1 << uint(nData+1)
	a.nObj = nData + 2
	a.objPtrs = make([]uint64, a.nObj)
}

// scanProgram precomputes per-pc permissive membership and whether the
// program can spawn threads (spawned threads enter any named function
// with clean registers, so those entries become roots).
func (a *Analysis) scanProgram() {
	p := a.prog
	n := len(p.Text)
	a.perm = make([]bool, n)
	funcEntry := make(map[int][]string)
	for name, idx := range p.Symbols {
		if idx >= 0 && idx < n && !strings.HasPrefix(name, ".") {
			funcEntry[idx] = append(funcEntry[idx], name)
		}
	}
	permissive := false
	for i := 0; i < n; i++ {
		if names, ok := funcEntry[i]; ok {
			permissive = false
			for _, nm := range names {
				if a.cfg.Permissive[nm] {
					permissive = true
				}
			}
		}
		a.perm[i] = permissive
		ins := &p.Text[i]
		if ins.Op == isa.OpSyscall && ins.Imm == isa.SysSpawn {
			a.hasSpawn = true
		}
	}
}

// normPtr maps "no pointer provenance" to unknown: a register we never
// saw an address flow into can still hold one we failed to model.
func normPtr(p uint64) uint64 {
	if p == 0 {
		return ptrUnknown
	}
	return p
}

// objectsOf maps an absolute address to its points-to bit(s); 0 means
// the constant is no modelled data address (dereferencing it widens).
func (a *Analysis) objectsOf(addr uint64) uint64 {
	switch addr >> mem.RegionShift {
	case 1:
		if addr >= a.dataEnd {
			return a.heapBit
		}
		if len(a.objLo) == 0 || addr < a.objLo[0] {
			return 0
		}
		i := sort.Search(len(a.objLo), func(i int) bool { return a.objLo[i] > addr }) - 1
		return 1 << uint(i)
	case 2:
		return a.stackBit
	}
	return 0
}

func (a *Analysis) anySeed() bool { return a.allTainted || a.tainted != 0 }

// memTaint reports whether a location addressed by pointer set p may
// carry taint.
func (a *Analysis) memTaint(p uint64) bool {
	if a.allTainted {
		return true
	}
	p = normPtr(p)
	if p&ptrUnknown != 0 {
		return a.tainted != 0
	}
	return p&a.tainted != 0
}

// loadPtr is the points-to set of a value loaded through pointer set p:
// the union of pointers that may have been stored into the addressed
// objects.
func (a *Analysis) loadPtr(p uint64) uint64 {
	p = normPtr(p)
	if p&ptrUnknown != 0 {
		return ptrUnknown
	}
	var r uint64
	for q := p; q != 0; q &= q - 1 {
		r |= a.objPtrs[bits.TrailingZeros64(q)]
	}
	return r
}

// seed marks every object addressed by pointer set p may-tainted.
func (a *Analysis) seed(p uint64) {
	p = normPtr(p)
	if p&ptrUnknown != 0 {
		if !a.allTainted {
			a.allTainted = true
			a.dirty = true
		}
		p &^= ptrUnknown
	}
	if a.tainted|p != a.tainted {
		a.tainted |= p
		a.dirty = true
	}
}

// storeEffect records a store's contribution to the global facts: taint
// of the data reaches the addressed objects, and pointer values escape
// into the per-object stored-pointer sets.
func (a *Analysis) storeEffect(in rstate, addrReg, dataReg uint8) {
	ap := normPtr(in.ptr[addrReg])
	if in.taint.Has(dataReg) {
		a.seed(in.ptr[addrReg])
	}
	dp := in.ptr[dataReg]
	if dp == 0 {
		return
	}
	if ap&ptrUnknown != 0 {
		for i := 0; i < a.nObj; i++ {
			if a.objPtrs[i]|dp != a.objPtrs[i] {
				a.objPtrs[i] |= dp
				a.dirty = true
			}
		}
		return
	}
	for q := ap; q != 0; q &= q - 1 {
		i := bits.TrailingZeros64(q)
		if a.objPtrs[i]|dp != a.objPtrs[i] {
			a.objPtrs[i] |= dp
			a.dirty = true
		}
	}
}

// syscallEffect models the OS boundary: taint seeds per channel, the
// result register r8 always comes back NaT-clear (sbrk's holds a heap
// pointer), and scalar arguments are proven clean on the fallthrough —
// a NaT'd argument faults (or traps to the user-level guard handler)
// inside the syscall itself.
func (a *Analysis) syscallEffect(out *rstate, in rstate, ins *isa.Instruction) {
	source := func(name string) bool {
		return a.cfg.Sources == nil || a.cfg.Sources[name]
	}
	switch ins.Imm {
	case isa.SysRead:
		// The fd decides stdin vs file at run time; seed if either
		// channel is an enabled source.
		if source("file") || source("stdin") {
			a.seed(in.ptr[isa.RegArg0+1])
		}
	case isa.SysRecv:
		if source("network") {
			a.seed(in.ptr[isa.RegArg0])
		}
	case isa.SysGetArg:
		if source("args") {
			a.seed(in.ptr[isa.RegArg0+1])
		}
	case isa.SysTaint:
		a.seed(in.ptr[isa.RegArg0])
	}
	if ins.Qp == 0 {
		for i := 0; i < isa.SyscallArgCount(ins.Imm); i++ {
			out.taint.Clear(uint8(isa.RegArg0 + i))
		}
	}
	out.taint.Clear(isa.RegRet)
	if ins.Imm == isa.SysSbrk {
		out.ptr[isa.RegRet] = a.heapBit
	} else {
		out.ptr[isa.RegRet] = 0
	}
}

// transfer computes the state after one instruction, contributing
// memory effects to the global sets as a side effect.
func (a *Analysis) transfer(pc int, in rstate) rstate {
	ins := &a.prog.Text[pc]
	out := in

	// Non-speculative memory accesses and moves to special registers
	// fault on a NaT input; the fallthrough sees those registers clean
	// (same rule as the contract checker's NaT dataflow).
	staticcheck.ClearNaTFaults(ins, &out.taint)

	switch ins.Flow() {
	case isa.FlowStore:
		// ABI register-preservation spills travel through UNAT, not the
		// bitmap: full instrumentation leaves them alone, so they never
		// change which locations the bitmap may mark.
		if !ins.ABI {
			a.storeEffect(in, ins.Src1, ins.Src2)
		}
	case isa.FlowCmpxchg:
		a.storeEffect(in, ins.Src1, ins.Src2)
	case isa.FlowNone:
		if ins.Op == isa.OpSyscall {
			a.syscallEffect(&out, in, ins)
		}
	}

	if ins.Op.HasDest() && ins.Dest != isa.RegZero {
		var t bool
		var p uint64
		switch ins.Flow() {
		case isa.FlowClear:
			t = false
			if ins.Op == isa.OpMovl {
				// The immediate may be a data address.
				p = a.objectsOf(uint64(ins.Imm))
			}
		case isa.FlowCopy:
			t, p = in.taint.Has(ins.Src1), in.ptr[ins.Src1]
		case isa.FlowUnion:
			t = in.taint.Has(ins.Src1) || in.taint.Has(ins.Src2)
			p1, p2 := in.ptr[ins.Src1], in.ptr[ins.Src2]
			if p1 != 0 && p2 != 0 {
				// Arithmetic over two pointer-carrying values is not an
				// in-object offset; widen.
				p = ptrUnknown
			} else {
				// Allocation-site rule: pointer ± scalar stays in its
				// object.
				p = p1 | p2
			}
		case isa.FlowLoad, isa.FlowCmpxchg:
			ap := in.ptr[ins.Src1]
			t, p = a.memTaint(ap), a.loadPtr(ap)
		case isa.FlowLoadSpec:
			// A deferred fault sets NaT no bitmap consult removes.
			t, p = true, a.loadPtr(in.ptr[ins.Src1])
		case isa.FlowFill:
			// The restored NaT comes from UNAT, not the bitmap: may be
			// set regardless of the location's tags.
			t = true
			if ins.ABI {
				p = ptrUnknown // restores a spilled caller register
			} else {
				p = a.loadPtr(in.ptr[ins.Src1])
			}
		case isa.FlowCcvGet:
			// ar.ccv is clean (mov.toccv faults on NaT), but its value
			// is not modelled: it may point anywhere.
			t, p = false, ptrUnknown
		case isa.FlowSetNat:
			t, p = true, in.ptr[ins.Dest]
		case isa.FlowClrNat:
			t, p = false, in.ptr[ins.Dest]
		default:
			t, p = true, ptrUnknown // unmodelled destination: assume the worst
		}
		if ins.Qp != 0 {
			// Predicated write: the old value may survive.
			t = t || in.taint.Has(ins.Dest)
			p |= in.ptr[ins.Dest]
		}
		if t {
			out.taint.Set(ins.Dest)
		} else {
			out.taint.Clear(ins.Dest)
		}
		out.ptr[ins.Dest] = p
	}
	return out
}

// preservedAcrossCall lists registers a callee returns with value and
// NaT intact: r0, SP, GP, the callee-saved locals (spilled and filled
// with their NaT bits through UNAT by the generated prologue/epilogue),
// and the reserved instrumentation registers (contract).
func preservedAcrossCall(r uint8) bool {
	switch {
	case r == isa.RegZero, r == isa.RegSP, r == isa.RegGP:
		return true
	case r >= isa.RegLoc0 && r <= isa.RegLocN:
		return true
	case r >= isa.RegKeep:
		return true
	}
	return false
}

// applyEdge transforms an out-state across a control-flow edge.
func (a *Analysis) applyEdge(e staticcheck.Edge, out rstate) rstate {
	s := out
	switch e.Kind {
	case staticcheck.EdgeRet:
		// The callee may clobber every non-preserved register with
		// anything it computed — tainted only if the program has a
		// taint seed at all.
		taintScratch := a.anySeed()
		for r := 0; r < isa.NumGR; r++ {
			if preservedAcrossCall(uint8(r)) {
				continue
			}
			if taintScratch {
				s.taint.Set(uint8(r))
			}
			s.ptr[r] = ptrUnknown
		}
	case staticcheck.EdgeChk:
		if e.Clr >= 0 {
			// chk.s fallthrough: proven NaT-free.
			s.taint.Clear(uint8(e.Clr))
		}
	}
	return s
}

// entryState is the loader's machine-reset state: clean zeroed
// registers, SP at the stack top, GP at the data base. GP is widened to
// unknown so hand-written GP-relative addressing stays sound.
func (a *Analysis) entryState() rstate {
	s := rstate{live: true}
	s.ptr[isa.RegSP] = a.stackBit
	s.ptr[isa.RegGP] = ptrUnknown
	return s
}

// spawnState is a spawned thread's entry: fresh clean registers (the
// scheduler builds a new machine; the taint() gate in the OS model
// faults on a NaT spawn argument, so arg0 arrives clean), with the
// argument pointing anywhere.
func (a *Analysis) spawnState() rstate {
	s := a.entryState()
	s.ptr[isa.RegArg0] = ptrUnknown
	return s
}

// solveRegs runs one register-dataflow fixpoint against the current
// global sets, rebuilding a.in from scratch.
func (a *Analysis) solveRegs() {
	n := len(a.prog.Text)
	a.in = make([]rstate, n)

	var work []int
	push := func(i int) { work = append(work, i) }

	for _, r := range a.g.Roots {
		if r < 0 || r >= n {
			continue
		}
		var st rstate
		switch {
		case r == a.prog.Entry:
			st = a.entryState()
		case a.hasSpawn:
			st = a.spawnState()
		default:
			// Reached only through explicit call/branch edges; no
			// spawn can enter it with unseen state.
			continue
		}
		merged := meet(a.in[r], st)
		if merged != a.in[r] {
			a.in[r] = merged
			push(r)
		}
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if !a.in[pc].live {
			continue
		}
		out := a.transfer(pc, a.in[pc])
		for _, e := range a.g.Succ[pc] {
			s := a.applyEdge(e, out)
			merged := meet(a.in[e.To], s)
			if merged != a.in[e.To] {
				a.in[e.To] = merged
				push(e.To)
			}
		}
	}
}

// decide freezes the per-instruction facts.
func (a *Analysis) decide() {
	a.facts = make([]Fact, len(a.prog.Text))
	for pc := range a.prog.Text {
		ins := &a.prog.Text[pc]
		st := a.in[pc]
		f := Fact{Live: st.live}
		if st.live {
			switch ins.Site() {
			case isa.SiteLoad:
				f.AddrTaint = st.taint.Has(ins.Src1)
				f.MemTaint = a.memTaint(st.ptr[ins.Src1])
				if ins.Op == isa.OpLdS {
					// A control-speculative load was hoisted above the
					// branch that guards it — typically a bounds check.
					// The points-to set's in-bounds assumption is exactly
					// what a misspeculated execution violates (the
					// spec-leak gadget reads one past its table), so the
					// bitmap consult stays unless the whole program is
					// taint-free.
					f.MemTaint = a.anySeed()
				}
			case isa.SiteStore:
				f.AddrTaint = st.taint.Has(ins.Src1)
				f.MemTaint = a.memTaint(st.ptr[ins.Src1])
				f.DataTaint = st.taint.Has(ins.Src2)
			case isa.SiteCompare:
				f.OpTaint = st.taint.Has(ins.Src1) ||
					(ins.Op.ReadsSrc2() && st.taint.Has(ins.Src2))
			}
		}
		a.facts[pc] = f
	}
}

// At returns the solved fact for an instruction.
func (a *Analysis) At(pc int) Fact {
	if pc < 0 || pc >= len(a.facts) {
		return Fact{}
	}
	return a.facts[pc]
}

// Permissive reports whether pc lies in a Config.Permissive function.
func (a *Analysis) Permissive(pc int) bool {
	if pc < 0 || pc >= len(a.perm) {
		return false
	}
	return a.perm[pc]
}

// Keep reports whether a selective pass must rewrite the site at pc
// (false for non-sites and dead code). A load stays instrumented when
// the location may carry taint; a store (or cmpxchg) also when its data
// may be tainted — tainted data must reach the bitmap, and a may-tainted
// target needs its stale tags cleared (region-0 digest equality). Both
// stay when the address is derived from tainted data and the program
// has any seed: the in-bounds assumption behind the points-to sets is
// void when an attacker steers the pointer (the recovery load of the
// spec-leak gadget reads one past its table through exactly such an
// address). Inside a permissive function a may-NaT address keeps the
// site too: full instrumentation would clean it, and a skipped site
// would fault where the full build does not. An ld.s's location counts
// as may-tainted whenever the program has any seed (see decide). A
// compare stays when either operand may carry NaT.
func (a *Analysis) Keep(pc int) bool {
	f := a.At(pc)
	if !f.Live {
		return false
	}
	addr := f.AddrTaint && (a.anySeed() || a.Permissive(pc))
	switch a.prog.Text[pc].Site() {
	case isa.SiteLoad:
		return f.MemTaint || addr
	case isa.SiteStore:
		return f.DataTaint || f.MemTaint || addr
	case isa.SiteCompare:
		return f.OpTaint
	}
	return false
}
