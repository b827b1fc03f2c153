package tagpipe

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// The memory shadow is paged like the tag bitmap it is checked against:
// pageUnits consecutive tracked units per page, each page three bitsets
// in unit order (bit i of word w is unit w*64+i of the page), so a sweep
// compares 64 units against one 64-bit bitmap read.
const (
	pageShift = 12
	pageUnits = 1 << pageShift
	pageWords = pageUnits / 64
)

// shadowPage is the shadow state of one page of tracked units, with the
// same hidden semantics as the lockstep oracle: a unit whose last writer
// bypassed the bitmap by design (ABI traffic, red-zone spills, tag
// bytes) is tracked but excluded from bitmap comparisons until a host
// write adopts it. known marks every unit a record or host effect has
// touched (the oracle's "map key present"); taint and hidden are zero
// wherever known is clear.
type shadowPage struct {
	taint  [pageWords]uint64
	known  [pageWords]uint64
	hidden [pageWords]uint64
}

// keyedPage pairs a page with its key (unit index >> pageShift).
type keyedPage struct {
	key uint64
	pg  *shadowPage
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
	shift   uint // log2 of the tracked unit's size in bytes
	pages   map[uint64]*shadowPage
	sorted  []keyedPage // every page, ascending by key: the sweep order
	threads map[int32]*regShadow

	// One-entry caches: consecutive records mostly touch one page and
	// one thread.
	lastKey  uint64
	lastPage *shadowPage
	lastTID  int32
	lastRegs *regShadow

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
	var shift uint
	if cfg.Tags != nil {
		shift = cfg.Tags.Gran.UnitShift()
	}
	return &state{
		shift:    shift,
		pages:    make(map[uint64]*shadowPage),
		threads:  make(map[int32]*regShadow),
		checking: cfg.Instrumented && cfg.Tags != nil,
	}
}

// regs returns (creating on first use) the shadow for a thread.
func (st *state) regs(tid int32) *regShadow {
	if st.lastRegs != nil && st.lastTID == tid {
		return st.lastRegs
	}
	rs := st.threads[tid]
	if rs == nil {
		rs = &regShadow{}
		st.threads[tid] = rs
	}
	st.lastTID, st.lastRegs = tid, rs
	return rs
}

// page returns the shadow page with the given key, creating it (and
// slotting it into the sweep order) when create is set; otherwise a
// page never touched is nil.
func (st *state) page(key uint64, create bool) *shadowPage {
	if st.lastPage != nil && st.lastKey == key {
		return st.lastPage
	}
	pg := st.pages[key]
	if pg == nil {
		if !create {
			return nil
		}
		pg = new(shadowPage)
		st.pages[key] = pg
		i, _ := slices.BinarySearchFunc(st.sorted, key, func(kp keyedPage, k uint64) int {
			return cmp.Compare(kp.key, k)
		})
		st.sorted = slices.Insert(st.sorted, i, keyedPage{key, pg})
	}
	st.lastKey, st.lastPage = key, pg
	return pg
}

// eachWord calls fn for every bitset word the units covering
// [addr, addr+n) fall in, in address order, until fn returns false. fn
// gets the page, the word's index in it, the unit index of the word's
// bit 0 and the mask of covered units. Without create, words on pages
// never touched are skipped. n must be positive; a range that wraps the
// address space covers nothing.
func (st *state) eachWord(addr, n uint64, create bool, fn func(pg *shadowPage, w int, base, mask uint64) bool) {
	first, last := addr>>st.shift, (addr+n-1)>>st.shift
	for idx := first; idx <= last; {
		end := min(idx|63, last)
		mask := ^uint64(0) >> (63 - (end - idx)) << (idx & 63)
		if pg := st.page(idx>>pageShift, create); pg != nil {
			if !fn(pg, int(idx>>6)&(pageWords-1), idx&^63, mask) {
				return
			}
		}
		if end == last {
			return
		}
		idx = end + 1
	}
}

// ones returns mask where b is set and zero otherwise.
func ones(b bool, mask uint64) uint64 {
	if b {
		return mask
	}
	return 0
}

// loadTaint ORs the shadow taint of every unit covering [addr, addr+size).
func (st *state) loadTaint(addr uint64, size int) bool {
	t := false
	st.eachWord(addr, uint64(size), false, func(pg *shadowPage, w int, _, mask uint64) bool {
		t = pg.taint[w]&mask != 0
		return !t
	})
	return t
}

// setMem writes the shadow taint of every unit covering the access.
func (st *state) setMem(addr uint64, size int, t, authoritative bool) {
	st.eachWord(addr, uint64(size), true, func(pg *shadowPage, w int, _, mask uint64) bool {
		pg.known[w] |= mask
		pg.taint[w] = pg.taint[w]&^mask | ones(t, mask)
		pg.hidden[w] = pg.hidden[w]&^mask | ones(!authoritative, mask)
		return true
	})
}

// hostSet makes every unit covering [addr, addr+n) known, visible and
// tainted (or clean): a host taint source or an explicit untaint.
func (st *state) hostSet(addr, n uint64, t bool) {
	st.eachWord(addr, n, true, func(pg *shadowPage, w int, _, mask uint64) bool {
		pg.known[w] |= mask
		pg.taint[w] = pg.taint[w]&^mask | ones(t, mask)
		pg.hidden[w] &^= mask
		return true
	})
}

// hostWrite applies an OS write of host data over [addr, addr+n). Tags
// are sticky under SHIFT's OS model, so the shadow taint stays; a hidden
// unit adopts its bitmap bit once (when the bitmap can represent it) and
// is checked from then on, and a never-seen unit becomes known and clean.
func (st *state) hostWrite(tags *taint.Space, addr, n uint64) {
	st.eachWord(addr, n, true, func(pg *shadowPage, w int, base, mask uint64) bool {
		if h := pg.hidden[w] & mask; h != 0 && tags != nil {
			bitmap, readable := st.peekUnits(tags, base, h)
			pg.taint[w] = pg.taint[w]&^readable | bitmap
			pg.hidden[w] &^= readable
		}
		pg.known[w] |= mask
		return true
	})
}

// peekUnits reads the bitmap bits of the units in mask of the word whose
// bit 0 is unit index base, one PeekUnit at a time. readable is the
// subset of mask the bitmap can represent; bitmap holds their bits.
func (st *state) peekUnits(tags *taint.Space, base, mask uint64) (bitmap, readable uint64) {
	for rest := mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		bit, err := tags.PeekUnit((base + uint64(i)) << st.shift)
		if err != nil {
			continue
		}
		readable |= 1 << i
		bitmap |= ones(bit, 1<<i)
	}
	return bitmap, readable
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
	case isa.FlowUnion:
		rs.set(r.dest, rs.taint[r.s1] || rs.taint[r.s2])
	case isa.FlowCopy:
		rs.set(r.dest, rs.taint[r.s1])
	case isa.FlowClear:
		rs.set(r.dest, false)
	case isa.FlowLoad:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		rs.set(r.dest, st.loadTaint(r.addr, int(r.size)))
	case isa.FlowLoadSpec:
		deferred := r.flags&fDeferred != 0
		if r.dest != isa.RegZero && natAfter != deferred {
			return div(r, oracle.DivNaTRule, r.dest, natAfter, deferred)
		}
		// Deferral token == taint under the one-bit encoding
		// (isa.FlowLoadSpec); keeps NaT/taint equality checks exact.
		t := true
		if !deferred {
			t = st.loadTaint(r.addr, int(r.size))
		}
		rs.set(r.dest, t)
	case isa.FlowFill:
		rs.set(r.dest, st.loadTaint(r.addr, int(r.size)))
	case isa.FlowStore:
		st.setMem(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
	case isa.FlowCmpxchg:
		if r.dest != isa.RegZero && natAfter {
			return div(r, oracle.DivNaTRule, r.dest, true, false)
		}
		old := st.loadTaint(r.addr, int(r.size))
		if r.flags&fCommitted != 0 {
			st.setMem(r.addr, int(r.size), rs.taint[r.s2], r.flags&fAuth != 0)
		}
		rs.set(r.dest, old)
	case isa.FlowCcvSet:
		rs.ccv = rs.taint[r.s1]
	case isa.FlowCcvGet:
		rs.set(r.dest, rs.ccv)
	case isa.FlowSetNat, isa.FlowClrNat:
		// No taint flow; the record exists so the suspect check below
		// runs at the right stream position.
	}
	if st.checking && natAfter &&
		r.dest >= 1 && r.dest < oracle.FirstReservedReg && !rs.taint[r.dest] {
		return div(r, oracle.DivRegister, r.dest, true, false)
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

// sweep cross-checks every known, non-hidden unit against the bitmap,
// in address order, 64 units per bitmap read. Units the bitmap cannot
// represent (red-zone/host ranges) have nothing to compare — the same
// rule as the oracle — and are not counted; on a mismatch the lowest
// differing unit is reported, and UnitChecks counts every unit compared
// up to and including it.
func (st *state) sweep(tags *taint.Space, m *machine.Machine, ins string, stats *Stats) *oracle.Divergence {
	stats.Sweeps.Add(1)
	var checks uint64
	for _, kp := range st.sorted {
		pg := kp.pg
		for w := range pg.known {
			mask := pg.known[w] &^ pg.hidden[w]
			if mask == 0 {
				continue
			}
			base := kp.key<<pageShift | uint64(w)<<6
			bitmap, ok := tags.PeekGroup(base << st.shift)
			if !ok {
				bitmap, mask = st.peekUnits(tags, base, mask)
			}
			diff := (bitmap ^ pg.taint[w]) & mask
			if diff == 0 {
				checks += uint64(bits.OnesCount64(mask))
				continue
			}
			i := bits.TrailingZeros64(diff)
			checks += uint64(bits.OnesCount64(mask & (uint64(2)<<i - 1)))
			stats.UnitChecks.Add(checks)
			return &oracle.Divergence{
				Kind: oracle.DivBitmap, TID: m.TID, PC: m.PC, Ins: ins,
				Addr:    (base + uint64(i)) << st.shift,
				Machine: bitmap>>i&1 != 0, Shadow: pg.taint[w]>>i&1 != 0,
			}
		}
	}
	stats.UnitChecks.Add(checks)
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
