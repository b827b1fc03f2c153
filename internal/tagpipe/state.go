package tagpipe

import (
	"fmt"
	"sort"
	"strings"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// memUnit is the shadow state of one tracked unit, with the same hidden
// semantics as the lockstep oracle: a unit whose last writer bypassed
// the bitmap by design (ABI traffic, red-zone spills, tag bytes) is
// tracked but excluded from bitmap comparisons until a host write
// adopts it.
type memUnit struct {
	taint  bool
	hidden bool
}

// regShadow is one thread's shadow taint state.
type regShadow struct {
	taint [isa.NumGR]bool
	ccv   bool
}

// state is the committed shadow taint state. Batched records reach it
// through applyRec; sinks (drains, host effects, spawns) read and mutate
// it directly, after applying the batch, so it is always up to date with
// execution when they do.
type state struct {
	unit    uint64
	mem     map[uint64]memUnit
	threads map[int32]*regShadow
	// checking mirrors the oracle's strong-check soundness: it drops
	// when a second thread spawns under UnsafePreempt (the §4.4 window
	// really is observable there). Transitions happen only at drains,
	// so every record is applied under the value in force when it
	// retired.
	checking bool
	// concurrent latches once checking has stood down; it never comes
	// back within a run (mirroring the oracle's latch).
	concurrent bool
}

func newState(cfg Config) *state {
	unit := uint64(1)
	if cfg.Tags != nil {
		unit = cfg.Tags.Gran.UnitBytes()
	}
	return &state{
		unit:     unit,
		mem:      make(map[uint64]memUnit),
		threads:  make(map[int32]*regShadow),
		checking: cfg.Instrumented && cfg.Tags != nil,
	}
}

// regs returns (creating on first use) the shadow for a thread.
func (st *state) regs(tid int32) *regShadow {
	rs := st.threads[tid]
	if rs == nil {
		rs = &regShadow{}
		st.threads[tid] = rs
	}
	return rs
}

// unitOf aligns an address down to its tracked unit.
func (st *state) unitOf(addr uint64) uint64 { return addr &^ (st.unit - 1) }

// loadTaint ORs the shadow taint of every unit covering [addr, addr+size).
func (st *state) loadTaint(addr uint64, size int) bool {
	for u := st.unitOf(addr); u < st.unitOf(addr+uint64(size)-1)+st.unit; u += st.unit {
		if st.mem[u].taint {
			return true
		}
	}
	return false
}

// setMem writes the shadow taint of every unit covering the access.
func (st *state) setMem(addr uint64, size int, t, authoritative bool) {
	for u := st.unitOf(addr); u < st.unitOf(addr+uint64(size)-1)+st.unit; u += st.unit {
		st.mem[u] = memUnit{taint: t, hidden: !authoritative}
	}
}

// setReg writes a register's shadow taint, preserving r0 == clean.
func (rs *regShadow) set(r uint8, t bool) {
	if r == isa.RegZero {
		return
	}
	rs.taint[r] = t
}

// div builds a divergence for a record, reusing the oracle's report
// type so inline and decoupled findings read identically.
func div(r *rec, kind oracle.DivergenceKind, reg uint8, mach, shadow bool) *oracle.Divergence {
	return &oracle.Divergence{
		Kind:    kind,
		TID:     int(r.tid),
		PC:      int(r.pc),
		Ins:     r.op.Name(),
		Reg:     reg,
		Machine: mach,
		Shadow:  shadow,
	}
}

// applyRec interprets one record against the shadow state — the
// reference consumer, byte-for-byte the oracle's propagation rules.
// It returns the first divergence the record exposes: a broken
// mechanical NaT rule (always checked), or a NaT token on an
// original-program register the shadow cannot account for (checked only
// while the strong checks are sound).
func (st *state) applyRec(r *rec) *oracle.Divergence {
	rs := st.regs(r.tid)
	natAfter := r.flags&fNatAfter != 0
	switch r.kind {
	case rUnion2:
		rs.set(r.dest, rs.taint[r.s1] || rs.taint[r.s2])
	case rCopy:
		rs.set(r.dest, rs.taint[r.s1])
	case rClear:
		rs.set(r.dest, false)
	case rLoad:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		rs.set(r.dest, st.loadTaint(r.addr, int(r.size)))
	case rLoadSpec:
		deferred := r.flags&fDeferred != 0
		if r.dest != isa.RegZero && natAfter != deferred {
			return div(r, oracle.DivNaTRule, r.dest, natAfter, deferred)
		}
		// Deferral token == taint under the one-bit encoding (see the
		// oracle's OpLdS rule); keeps NaT/taint equality checks exact.
		t := true
		if !deferred {
			t = st.loadTaint(r.addr, int(r.size))
		}
		rs.set(r.dest, t)
	case rLoadFill:
		rs.set(r.dest, st.loadTaint(r.addr, 8))
	case rStore:
		st.setMem(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
	case rCmpxchg:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		old := st.loadTaint(r.addr, int(r.size))
		if r.flags&fCommitted != 0 {
			st.setMem(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
		}
		rs.set(r.dest, old)
	case rCcvSet:
		rs.ccv = rs.taint[r.s1]
	case rCcvGet:
		rs.set(r.dest, rs.ccv)
	case rNatOnly:
		// No taint flow; the suspect check below is the whole point.
	}
	if st.checking && natAfter &&
		r.dest >= 1 && r.dest < oracle.FirstReservedReg && !rs.taint[r.dest] {
		return div(r, oracle.DivRegister, r.dest, true, false)
	}
	return nil
}

// checkUnit compares one unit's bitmap bit against the shadow.
func (st *state) checkUnit(tags *taint.Space, m *machine.Machine, ins string, u uint64, stats *Stats) *oracle.Divergence {
	bit, err := tags.PeekUnit(u)
	if err != nil {
		// Not representable in the bitmap (red-zone/host ranges);
		// nothing to compare — same rule as the oracle.
		return nil
	}
	stats.UnitChecks.Add(1)
	if sh := st.mem[u].taint; bit != sh {
		return &oracle.Divergence{
			Kind: oracle.DivBitmap, TID: m.TID, PC: m.PC, Ins: ins,
			Addr: u, Machine: bit, Shadow: sh,
		}
	}
	return nil
}

// flushCheck is the sink-boundary register sweep: every original-program
// register's NaT bit must equal the shadow, skipping the register the
// sink instruction itself writes (its instrumentation block is still
// open, exactly as at the oracle's boundaries).
func (st *state) flushCheck(m *machine.Machine, ins string, skip int, stats *Stats) *oracle.Divergence {
	rs := st.regs(int32(m.TID))
	for r := 1; r < oracle.FirstReservedReg; r++ {
		if r == skip {
			continue
		}
		stats.RegChecks.Add(1)
		if m.NaT[r] != rs.taint[r] {
			return &oracle.Divergence{
				Kind: oracle.DivRegister, TID: m.TID, PC: m.PC, Ins: ins,
				Reg: uint8(r), Machine: m.NaT[r], Shadow: rs.taint[r],
			}
		}
	}
	return nil
}

// sweep cross-checks every non-hidden unit the shadow knows about
// against the bitmap, in address order.
func (st *state) sweep(tags *taint.Space, m *machine.Machine, ins string, stats *Stats) *oracle.Divergence {
	stats.Sweeps.Add(1)
	units := make([]uint64, 0, len(st.mem))
	for u, mu := range st.mem {
		if !mu.hidden {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, u := range units {
		if d := st.checkUnit(tags, m, ins, u, stats); d != nil {
			return d
		}
	}
	return nil
}

// snapshot renders the shadow state for a divergence report.
func (st *state) snapshot(m *machine.Machine) string {
	var b strings.Builder
	rs := st.regs(int32(m.TID))
	fmt.Fprintf(&b, "  tid=%d pc=%d retired=%d cycles=%d halted=%v (decoupled; detection is sink-granular)\n",
		m.TID, m.PC, m.Retired, m.Cycles, m.Halted)
	for r := 0; r < isa.NumGR; r++ {
		if m.GR[r] == 0 && !m.NaT[r] && !rs.taint[r] {
			continue
		}
		fmt.Fprintf(&b, "  r%-3d = %#-18x nat=%-5v shadow=%v\n", r, uint64(m.GR[r]), m.NaT[r], rs.taint[r])
	}
	return b.String()
}
