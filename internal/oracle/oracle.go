package oracle

import (
	"sort"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/taint"
)

// FirstReservedReg is the first instrumentation-reserved register.
// Original-program registers are r1..r118: r119..r127 are reserved by the
// instrumentation pass (scratch, kept mask, NaT source) and are routinely
// NaT'd or laundered, so they carry no reference-taint meaning. Exported
// for the decoupled tag pipeline, which runs the same boundary sweeps.
const FirstReservedReg = 119

// Config selects what the oracle checks.
type Config struct {
	// Tags is the tag bitmap under test; nil disables all bitmap
	// cross-checks (e.g. a bare machine run with no tag space).
	Tags *taint.Space
	// Instrumented states that the guest program maintains the bitmap
	// and register NaT bits as taint tags. When false (a baseline
	// build), only the mechanical NaT-rule checks run: there is no tag
	// state to compare the shadow against.
	Instrumented bool
	// UnsafePreempt mirrors machine.Machine.UnsafePreempt: the scheduler
	// may end a time slice between a data store and its tag update. In
	// that mode the strong cross-checks stand down once a second thread
	// spawns — the §4.4 window really is observable, so bitmap and
	// register comparisons would flag the hazard under test rather than
	// a divergence. Under the default tag-coherent scheduling the checks
	// stay up through fully multithreaded runs.
	UnsafePreempt bool
}

// memUnit is the shadow state of one tracked unit (one byte at byte
// granularity, one 8-byte word at word granularity).
type memUnit struct {
	taint bool
	// hidden marks a unit whose last write bypassed the bitmap by
	// design: ABI register-preservation traffic, the instrumentation's
	// red-zone NaT-stripping spills, and tag-byte stores themselves.
	// The shadow still tracks taint through them (that is how spilled
	// tokens keep their meaning), but the bitmap is not expected to
	// agree there.
	hidden bool
}

// regShadow is one thread's register taint state.
type regShadow struct {
	taint [isa.NumGR]bool
	// ccv is the shadow taint of the ar.ccv compare value.
	ccv bool
	// pre is captured by PreStep for the instruction in flight.
	pre Pre
}

// Stats counts the cross-checks performed, for reporting.
type Stats struct {
	Steps      uint64 // instructions observed
	RegChecks  uint64 // register boundary comparisons
	UnitChecks uint64 // bitmap unit comparisons
	Sweeps     uint64 // syscall/final bitmap sweeps
}

// Oracle is the lockstep reference engine. It implements
// machine.StepHook and the shift package's HostEffects interface.
type Oracle struct {
	cfg  Config
	unit uint64 // tracked unit size in bytes

	mem     map[uint64]memUnit
	threads map[int]*regShadow
	pending []uint64 // units awaiting a bitmap check at the next boundary

	// concurrent latches when a second thread spawns under
	// Config.UnsafePreempt: only then are the store-to-tag-update
	// windows of one thread observable by the others (the §4.4
	// atomicity gap), making bitmap and register-equality checks
	// unsound. Tag-coherent scheduling (the default) never sets it.
	concurrent bool

	failure *Divergence
	Stats   Stats
}

// New builds an oracle. Attach it with Attach (or machine.Machine.Hook),
// and wire it as the world's HostEffects to mirror syscall writes.
func New(cfg Config) *Oracle {
	unit := uint64(1)
	if cfg.Tags != nil {
		unit = cfg.Tags.Gran.UnitBytes()
	}
	return &Oracle{
		cfg:     cfg,
		unit:    unit,
		mem:     make(map[uint64]memUnit),
		threads: make(map[int]*regShadow),
	}
}

// Attach installs the oracle as the machine's step hook.
func (o *Oracle) Attach(m *machine.Machine) {
	m.Hook = o
}

// Divergence returns the first divergence found, or nil.
func (o *Oracle) Divergence() *Divergence { return o.failure }

// regs returns (creating on first use) the shadow for a thread.
func (o *Oracle) regs(tid int) *regShadow {
	rs := o.threads[tid]
	if rs == nil {
		rs = &regShadow{}
		o.threads[tid] = rs
	}
	return rs
}

// unitOf aligns an address down to its tracked unit.
func (o *Oracle) unitOf(addr uint64) uint64 { return addr &^ (o.unit - 1) }

// loadTaint ORs the shadow taint of every unit covering [addr, addr+size).
func (o *Oracle) loadTaint(addr uint64, size int) bool {
	for u := o.unitOf(addr); u < o.unitOf(addr+uint64(size)-1)+o.unit; u += o.unit {
		if o.mem[u].taint {
			return true
		}
	}
	return false
}

// setMem writes the shadow taint of every unit covering the access. An
// authoritative store (one the instrumentation pass follows with a tag
// update) also queues the units for a bitmap cross-check at the next
// original-instruction boundary.
func (o *Oracle) setMem(addr uint64, size int, t, authoritative bool) {
	for u := o.unitOf(addr); u < o.unitOf(addr+uint64(size)-1)+o.unit; u += o.unit {
		o.mem[u] = memUnit{taint: t, hidden: !authoritative}
		if authoritative && !o.concurrent {
			o.pending = append(o.pending, u)
		}
	}
}

// fail records the first divergence (later ones are ignored) and returns
// it as the error PostStep hands to the machine.
func (o *Oracle) fail(m *machine.Machine, ins *isa.Instruction, d Divergence) error {
	if o.failure != nil {
		return o.failure
	}
	d.TID = m.TID
	d.PC = m.PC
	d.Ins = ins.String()
	d.Snapshot = o.snapshot(m)
	o.failure = &d
	return o.failure
}

// checkUnit compares one unit's bitmap bit against the shadow.
func (o *Oracle) checkUnit(m *machine.Machine, ins *isa.Instruction, u uint64) error {
	bit, err := o.cfg.Tags.PeekUnit(u)
	if err != nil {
		// The unit is not representable in the bitmap (red-zone or
		// host ranges outside mapped tag space never are in practice);
		// nothing to compare.
		return nil
	}
	o.Stats.UnitChecks++
	if sh := o.mem[u].taint; bit != sh {
		return o.fail(m, ins, Divergence{Kind: DivBitmap, Addr: u, Machine: bit, Shadow: sh})
	}
	return nil
}

// flush runs the queued store checks, then (at boundaries) the register
// NaT-vs-shadow sweep, skipping the register the current instruction just
// wrote (its instrumentation block is still open).
func (o *Oracle) flush(m *machine.Machine, ins *isa.Instruction, skip int) error {
	for _, u := range o.pending {
		if err := o.checkUnit(m, ins, u); err != nil {
			return err
		}
	}
	o.pending = o.pending[:0]
	rs := o.regs(m.TID)
	for r := 1; r < FirstReservedReg; r++ {
		if r == skip {
			continue
		}
		o.Stats.RegChecks++
		if m.NaT[r] != rs.taint[r] {
			return o.fail(m, ins, Divergence{Kind: DivRegister, Reg: uint8(r), Machine: m.NaT[r], Shadow: rs.taint[r]})
		}
	}
	return nil
}

// sweep cross-checks every non-hidden unit the shadow knows about
// against the bitmap, in address order.
func (o *Oracle) sweep(m *machine.Machine, ins *isa.Instruction) error {
	o.Stats.Sweeps++
	units := make([]uint64, 0, len(o.mem))
	for u, mu := range o.mem {
		if !mu.hidden {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, u := range units {
		if err := o.checkUnit(m, ins, u); err != nil {
			return err
		}
	}
	return nil
}

// Finish runs the final bitmap sweep and boundary checks after a clean
// run. Call it once execution has halted without a trap.
func (o *Oracle) Finish(m *machine.Machine) error {
	if o.failure != nil {
		return o.failure
	}
	if !o.checking() {
		return nil
	}
	nop := isa.Instruction{Op: isa.OpNop}
	if err := o.flush(m, &nop, -1); err != nil {
		return err
	}
	return o.sweep(m, &nop)
}

// checking reports whether the strong (tag-state vs shadow) checks are
// sound right now.
func (o *Oracle) checking() bool {
	return o.cfg.Instrumented && o.cfg.Tags != nil && !o.concurrent && o.failure == nil
}
