package instrument

import "shift/internal/isa"

// cleanTracker is a tiny forward dataflow analysis over straight-line
// code: it tracks which registers provably hold untainted values (derived
// only from immediates) since the last label or call. Compares whose
// operands are all provably clean keep their cheap NaT-sensitive form;
// everything else is relaxed — the conservative direction, matching the
// paper's observation that SHIFT instruments "loads, stores and
// comparison instructions".
type cleanTracker struct {
	clean [isa.NumGR]bool
}

func newCleanTracker() *cleanTracker {
	t := &cleanTracker{}
	t.reset()
	return t
}

// reset forgets everything except r0 (hardwired zero, never NaT).
func (t *cleanTracker) reset() {
	for i := range t.clean {
		t.clean[i] = false
	}
	t.clean[isa.RegZero] = true
}

// compareClean reports whether a compare's register operands are all
// provably clean.
func (t *cleanTracker) compareClean(ins *isa.Instruction) bool {
	if ins.Op == isa.OpCmp {
		return t.clean[ins.Src1] && t.clean[ins.Src2]
	}
	return t.clean[ins.Src1]
}

// step updates facts across one original instruction.
func (t *cleanTracker) step(ins *isa.Instruction) {
	// A predicated write may or may not happen; its destination becomes
	// unknown unless the transfer would keep it clean anyway.
	conservative := ins.Qp != 0

	set := func(r uint8, v bool) {
		if r == isa.RegZero {
			return
		}
		if conservative {
			t.clean[r] = t.clean[r] && v
			return
		}
		t.clean[r] = v
	}

	switch ins.Flow() {
	case isa.FlowClear, isa.FlowClrNat:
		set(ins.Dest, true)
	case isa.FlowCopy:
		set(ins.Dest, t.clean[ins.Src1])
	case isa.FlowUnion:
		set(ins.Dest, t.clean[ins.Src1] && t.clean[ins.Src2])
	case isa.FlowLoad, isa.FlowLoadSpec, isa.FlowFill, isa.FlowCmpxchg, isa.FlowSetNat:
		set(ins.Dest, false)
	case isa.FlowCcvGet:
		// Left untouched: ar.ccv is clean (mov.toccv faults on NaT), so
		// the old fact stays sound; marking the register clean instead
		// would change which compares the pass relaxes.
	case isa.FlowNone:
		if ins.Op == isa.OpBrCall || ins.Op == isa.OpSyscall {
			// The callee (or OS model) may write any register.
			t.reset()
		}
	}
}
