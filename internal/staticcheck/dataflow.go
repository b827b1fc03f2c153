package staticcheck

import "shift/internal/isa"

// RegSet is a bit set over the 128 general registers.
type RegSet [2]uint64

func (s *RegSet) Set(r uint8)     { s[r>>6] |= 1 << (r & 63) }
func (s *RegSet) Clear(r uint8)   { s[r>>6] &^= 1 << (r & 63) }
func (s RegSet) Has(r uint8) bool { return s[r>>6]>>(r&63)&1 != 0 }
func (s RegSet) Or(o RegSet) RegSet {
	return RegSet{s[0] | o[0], s[1] | o[1]}
}
func (s RegSet) And(o RegSet) RegSet {
	return RegSet{s[0] & o[0], s[1] & o[1]}
}

var allRegs = RegSet{^uint64(0), ^uint64(0)}

// state is the forward dataflow fact at an instruction: which registers
// may carry NaT, which have definitely been written on every path, and
// which UNAT bits hold a definitely-saved NaT.
type state struct {
	live bool
	nat  RegSet // may carry NaT
	init RegSet // written on all paths
	unat uint64 // UNAT bits saved by a spill (or mov unat=) on all paths
}

// meet joins two states: may-NaT unions, must-init and must-unat
// intersect.
func meet(a, b state) state {
	if !a.live {
		return b
	}
	if !b.live {
		return a
	}
	return state{
		live: true,
		nat:  a.nat.Or(b.nat),
		init: a.init.And(b.init),
		unat: a.unat & b.unat,
	}
}

// entryState is the machine-reset state at the program entry: every
// register holds a clean zero, but the reserved instrumentation
// registers (r119..r127) have not yet been given their contract values.
func entryState() state {
	s := state{live: true, init: allRegs}
	for r := isa.RegKeep; r < isa.NumGR; r++ {
		s.init.Clear(uint8(r))
	}
	return s
}

// rootState is the conservative state at a function entry reached by a
// call or a thread spawn: any register may carry NaT except r0 and the
// kept OffsetMask register (only ever written by movl), everything is
// considered written (spawned threads inherit r119/r127 from thread 0),
// and no UNAT bit is trusted.
func rootState() state {
	s := state{live: true, nat: allRegs, init: allRegs}
	s.nat.Clear(isa.RegZero)
	s.nat.Clear(isa.RegKeep)
	return s
}

// natEffect classifies how an opcode's destination NaT bit derives from
// its inputs.
type natEffect uint8

const (
	natClean natEffect = iota // destination never NaT
	natMaybe                  // destination may be NaT regardless of inputs
	natProp1                  // propagates from Src1
	natProp2                  // propagates from Src1 | Src2
)

// natOf reads the instruction's transfer kind as a NaT effect.
func natOf(ins *isa.Instruction) natEffect {
	switch ins.Flow() {
	case isa.FlowClear, isa.FlowLoad, isa.FlowCmpxchg, isa.FlowCcvGet, isa.FlowClrNat:
		// A plain load and cmpxchg strip NaT; ar.ccv never holds one
		// (mov.toccv faults on it).
		return natClean
	case isa.FlowCopy:
		return natProp1
	case isa.FlowUnion:
		return natProp2
	case isa.FlowLoadSpec, isa.FlowFill, isa.FlowSetNat:
		// ld.s may defer, ld8.fill restores its NaT bit from UNAT rather
		// than from the spilled unit, and setnat sets it.
		return natMaybe
	}
	return natMaybe // unmodelled
}

// ClearNaTFaults clears from s the sources an unpredicated ins faults on
// when they carry NaT (isa.Opcode.NaTFaults): code past it sees them
// clean. The reachability analysis applies the same rule to its taint
// set.
func ClearNaTFaults(ins *isa.Instruction, s *RegSet) {
	if ins.Qp != 0 {
		return
	}
	f1, f2 := ins.Op.NaTFaults()
	if f1 {
		s.Clear(ins.Src1)
	}
	if f2 {
		s.Clear(ins.Src2)
	}
}

// cleanWrites recognises the block-local tnat-guarded clean idiom from
// the instrumentation pass (§4.1 "Setting and Clearing NaT-bit"):
//
//	tnat pT, pF = rX        ; pT <=> NaT(rX)
//	mov  rC = rX            ; (optional copy; NaT equality preserved)
//	(pT) ... clean write to rC ...
//
// A predicated write whose result is clean and whose qualifying
// predicate is true exactly when the destination was NaT leaves the
// destination clean on both predicate outcomes. The recognition is
// purely syntactic, so it is computed once, before the fixpoint.
func (c *checker) cleanWrites() {
	p := c.prog
	n := len(p.Text)
	c.cleanWrite = make([]bool, n)

	// Linear-scan boundaries: any point control can enter other than by
	// fallthrough invalidates the predicate facts.
	leader := make([]bool, n+1)
	leader[0] = true
	if p.Entry >= 0 && p.Entry < n {
		leader[p.Entry] = true
	}
	for _, idx := range p.Symbols {
		if idx >= 0 && idx <= n {
			leader[idx] = true
		}
	}
	for i := 0; i < n; i++ {
		ins := &p.Text[i]
		if ins.Op.IsBranch() && ins.Op != isa.OpBrRet && ins.Op != isa.OpBrInd {
			if t, ok := TargetOf(p, ins); ok {
				leader[t] = true
			}
		}
	}

	// guards[p] is the set of registers whose NaT bit is known equal to
	// predicate p.
	var guards [isa.NumPR]RegSet
	resetGuards := func() {
		for i := range guards {
			guards[i] = RegSet{}
		}
	}
	dropReg := func(r uint8) {
		for i := range guards {
			guards[i].Clear(r)
		}
	}

	for i := 0; i < n; i++ {
		if leader[i] {
			resetGuards()
		}
		ins := &p.Text[i]

		if ins.Qp != 0 && ins.Op.HasDest() && natOf(ins) == natClean &&
			guards[ins.Qp].Has(ins.Dest) {
			c.cleanWrite[i] = true
		}

		switch {
		case ins.Op == isa.OpTnat:
			guards[ins.P1] = RegSet{}
			guards[ins.P2] = RegSet{}
			if ins.Qp == 0 {
				guards[ins.P1].Set(ins.Src1)
			}
		case ins.Op.IsCompare():
			guards[ins.P1] = RegSet{}
			guards[ins.P2] = RegSet{}
		case ins.Op == isa.OpBrCall || ins.Op == isa.OpSyscall:
			// The callee (or OS model) may write any predicate.
			resetGuards()
		case ins.Op == isa.OpMov && ins.Qp == 0:
			src := ins.Src1
			var carry [isa.NumPR]bool
			for pr := range guards {
				carry[pr] = guards[pr].Has(src)
			}
			dropReg(ins.Dest)
			for pr := range guards {
				if carry[pr] {
					guards[pr].Set(ins.Dest)
				}
			}
		default:
			if ins.Op.HasDest() {
				dropReg(ins.Dest)
			}
		}
	}
}

// transfer computes the state after executing one instruction.
func (c *checker) transfer(pc int, in state) state {
	ins := &c.prog.Text[pc]
	out := in

	// Non-speculative memory accesses and moves to special registers
	// fault on a NaT input; code past them sees the register clean.
	ClearNaTFaults(ins, &out.nat)

	// UNAT effects.
	if ins.Qp == 0 {
		switch ins.Op {
		case isa.OpStSpill:
			out.unat |= 1 << uint(ins.Imm&63)
		case isa.OpMovToUnat:
			out.unat = ^uint64(0)
		}
	}

	if ins.Op.HasDest() && ins.Dest != isa.RegZero {
		out.init.Set(ins.Dest)
		var maybe bool
		switch natOf(ins) {
		case natClean:
			maybe = false
		case natMaybe:
			maybe = true
		case natProp1:
			maybe = in.nat.Has(ins.Src1)
		case natProp2:
			maybe = in.nat.Has(ins.Src1) || in.nat.Has(ins.Src2)
		}
		switch {
		case ins.Qp == 0:
			// Unconditional write.
		case c.cleanWrite[pc]:
			// Guarded clean: not-taken means it was already clean.
			maybe = false
		default:
			// Predicated write: the old value may survive.
			maybe = maybe || in.nat.Has(ins.Dest)
		}
		if maybe {
			out.nat.Set(ins.Dest)
		} else {
			out.nat.Clear(ins.Dest)
		}
	}
	return out
}

// applyEdge transforms an out-state across a control-flow edge.
func applyEdge(e Edge, out state) state {
	s := out
	switch e.Kind {
	case EdgeRet:
		// The callee may leave NaT in any register it writes; only r0
		// and the kept mask register are contractually clean. Written-
		// ness is monotone, but the callee's UNAT is not trusted.
		s.nat = allRegs
		s.nat.Clear(isa.RegZero)
		s.nat.Clear(isa.RegKeep)
		s.unat = 0
	case EdgeChk:
		if e.Clr >= 0 {
			s.nat.Clear(uint8(e.Clr))
		}
	}
	return s
}

// solve runs the worklist to fixpoint, filling c.in with the state at
// each instruction and c.reach with reachability.
func (c *checker) solve() {
	n := len(c.prog.Text)
	c.in = make([]state, n)
	c.reach = c.g.Reachable()

	var work []int
	push := func(i int) { work = append(work, i) }

	for _, r := range c.g.Roots {
		if r < 0 || r >= n {
			continue
		}
		var seed state
		if r == c.prog.Entry {
			seed = entryState()
		} else {
			seed = rootState()
		}
		merged := meet(c.in[r], seed)
		if merged != c.in[r] {
			c.in[r] = merged
			push(r)
		}
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		out := c.transfer(pc, c.in[pc])
		for _, e := range c.g.Succ[pc] {
			s := applyEdge(e, out)
			merged := meet(c.in[e.To], s)
			if merged != c.in[e.To] {
				c.in[e.To] = merged
				push(e.To)
			}
		}
	}
}
