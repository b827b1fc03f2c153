// Package machine implements the simulated processor: the deferred-
// exception (NaT-bit) datapath of paper §2.2, the Itanium-specific
// behaviours of §4.1 (NaT-sensitive compares, spill/fill through UNAT,
// plain loads stripping NaT), the optional enhancement instructions of
// §4.4/§6.3, a deterministic cycle cost model with per-cost-class
// accounting (Figure 9), and the system-call boundary where the OS model
// and policy engine plug in.
package machine

import (
	"fmt"

	"shift/internal/isa"
	"shift/internal/mem"
)

// Features selects which of the paper's proposed architectural
// enhancements exist on this machine (§6.3). The baseline Itanium has
// neither.
type Features struct {
	SetClrNaT   bool // enhancement 1: setnat/clrnat instructions
	NaTAwareCmp bool // enhancement 2: cmp.na / cmpi.na
}

// TrapKind classifies execution traps. The NaT-consumption kinds are the
// hardware events that SHIFT's low-level policies L1–L3 map onto.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone         TrapKind = iota
	TrapNaTLoadAddr           // NaT'd address register in a load (policy L1)
	TrapNaTStoreAddr          // NaT'd address register in a store (policy L2)
	TrapNaTStoreData          // NaT'd data in a plain (non-spill) store
	TrapNaTBranch             // NaT'd value moved into a branch register (policy L3)
	TrapNaTSyscall            // NaT'd scalar syscall argument (policy L3)
	TrapMemFault              // memory fault in a non-speculative access
	TrapIllegal               // undefined or feature-gated instruction
	TrapDivZero               // integer division by zero
	TrapBadPC                 // control transferred outside the text
	TrapBudget                // instruction budget exhausted (runaway guard)
	TrapHostError             // OS-model/internal error (see Err)
	TrapOracle                // lockstep oracle detected a divergence (see Err)
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapNaTLoadAddr:
		return "nat-consumption:load-address"
	case TrapNaTStoreAddr:
		return "nat-consumption:store-address"
	case TrapNaTStoreData:
		return "nat-consumption:store-data"
	case TrapNaTBranch:
		return "nat-consumption:branch-register"
	case TrapNaTSyscall:
		return "nat-consumption:syscall-argument"
	case TrapMemFault:
		return "memory-fault"
	case TrapIllegal:
		return "illegal-instruction"
	case TrapDivZero:
		return "divide-by-zero"
	case TrapBadPC:
		return "bad-pc"
	case TrapBudget:
		return "instruction-budget-exhausted"
	case TrapHostError:
		return "host-error"
	case TrapOracle:
		return "oracle-divergence"
	}
	return fmt.Sprintf("trap(%d)", uint8(k))
}

// IsNaTConsumption reports whether the trap is a NaT-consumption fault,
// i.e. raised by the deferred-exception hardware on an improper use of a
// tagged register (paper §2.2: "Improper uses of the tokens will trigger
// an exception").
func (k TrapKind) IsNaTConsumption() bool {
	switch k {
	case TrapNaTLoadAddr, TrapNaTStoreAddr, TrapNaTStoreData, TrapNaTBranch, TrapNaTSyscall:
		return true
	}
	return false
}

// Trap describes an execution trap.
type Trap struct {
	Kind TrapKind
	PC   int    // instruction index that trapped
	Addr uint64 // faulting address, if a memory access
	Reg  uint8  // offending register, if a NaT consumption
	Ins  string // disassembly of the trapping instruction
	Err  error  // detail for TrapHostError / TrapMemFault
}

// Error implements the error interface.
func (t *Trap) Error() string {
	s := fmt.Sprintf("trap %s at pc=%d [%s]", t.Kind, t.PC, t.Ins)
	if t.Kind == TrapMemFault || t.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", t.Addr)
	}
	if t.Err != nil {
		s += ": " + t.Err.Error()
	}
	return s
}

// Costs is the deterministic cycle model. It is deliberately simple: the
// paper's performance story is about instruction counts added per load,
// store and compare, so a per-instruction charge plus a cache-miss penalty
// captures the shape of every figure.
type Costs struct {
	ALU       uint64 // simple integer op, mov, compares, tnat
	Movl      uint64 // movl (two issue slots on Itanium)
	MulDiv    uint64 // mul/div/rem
	Ld        uint64 // load hitting L1
	LdMiss    uint64 // additional penalty on an L1 miss
	St        uint64 // store
	SpillFill uint64 // st8.spill / ld8.fill extra over a plain access
	Chk       uint64 // chk.s (not taken)
	Br        uint64 // any taken or not-taken branch
	Nop       uint64
	PredOff   uint64 // predicated-off instruction (fetch slot only)
	Syscall   uint64 // base cost of entering the OS model
	Defer     uint64 // extra cost when a speculative load defers a fault
	// (the failed translation completes before the token is written —
	// this is what makes manufacturing a NaT by faulting expensive,
	// paper §4.4)
}

// DefaultCosts returns the model used throughout the evaluation.
func DefaultCosts() Costs {
	return Costs{
		ALU:       1,
		Movl:      2,
		MulDiv:    4,
		Ld:        2,
		LdMiss:    12,
		St:        1,
		SpillFill: 2,
		Chk:       1,
		Br:        1,
		Nop:       1,
		PredOff:   1,
		Syscall:   200,
		Defer:     30,
	}
}

// StepHook observes retirement in lockstep with execution. PreStep runs
// after fetch, before any architectural effect (including the qualifying-
// predicate squash), so the hook can capture pre-state; PostStep runs
// after the instruction's effects commit and before the PC advances.
// A non-nil PostStep error aborts execution with a TrapOracle wrapping
// it. Neither callback runs for an instruction that traps — execution is
// aborting anyway and the machine state is mid-instruction.
//
// The hook exists for the differential taint oracle (internal/oracle),
// but is generic: any observer needing per-retirement visibility can
// attach without touching the interpreter.
type StepHook interface {
	PreStep(m *Machine, ins *isa.Instruction)
	PostStep(m *Machine, ins *isa.Instruction) error
}

// MultiHook fans one retirement stream out to several observers (e.g.
// the lockstep oracle plus the flight recorder). The interpreter's hot
// path still pays its single nil check; the slice walk lands only on
// runs that asked for more than one observer. PostStep errors stop at
// the first failing hook, matching the single-hook abort semantics.
type MultiHook []StepHook

// PreStep implements StepHook.
func (h MultiHook) PreStep(m *Machine, ins *isa.Instruction) {
	for _, s := range h {
		s.PreStep(m, ins)
	}
}

// PostStep implements StepHook.
func (h MultiHook) PostStep(m *Machine, ins *isa.Instruction) error {
	for _, s := range h {
		if err := s.PostStep(m, ins); err != nil {
			return err
		}
	}
	return nil
}

// SyscallHandler is the OS model invoked by the syscall instruction. It
// may read registers and memory through the machine, must set the result
// in r8 if the call returns a value, and returns extra cycles to charge
// (e.g. proportional to bytes of I/O). Returning a non-nil trap aborts
// execution — this is how policy violations at syscall sinks surface.
type SyscallHandler interface {
	Syscall(m *Machine, num int64) (extraCycles uint64, trap *Trap)
}

// Machine is one simulated processor plus its memory.
type Machine struct {
	GR  [isa.NumGR]int64
	NaT [isa.NumGR]bool
	PR  [isa.NumPR]bool
	BR  [isa.NumBR]int64

	// UNAT collects NaT bits spilled by st8.spill, indexed by the
	// instruction's UNAT bit operand, and is consumed by ld8.fill.
	UNAT uint64
	// CCV is the compare value for cmpxchg (Itanium ar.ccv).
	CCV uint64

	PC   int
	Prog *isa.Program
	Mem  *mem.Memory
	OS   SyscallHandler

	Feat  Features
	Costs Costs

	// Accounting. Cycles and the per-cost-class split are always on (every
	// figure needs them); the optional per-PC profile (see EnableProfile)
	// costs one nil check per retirement when off.
	Cycles        uint64
	CyclesByClass [isa.NumCostClasses]uint64
	Retired       uint64

	// Budget bounds total retired instructions; 0 means the default.
	Budget uint64

	// Hook, when non-nil, observes every retirement (one nil check per
	// instruction on the hot path).
	Hook StepHook

	Halted     bool
	ExitStatus int64

	// TID identifies the thread when running under a Scheduler.
	TID int
	// YieldReq asks the scheduler to end the current time slice (set by
	// the yield/join syscalls).
	YieldReq bool
	// UnsafePreempt lets a quantum expiry end the time slice anywhere,
	// including between a data store and its tag-update sequence — the
	// exact window of the paper's §4.4 bitmap hazard. By default a slice
	// only ends when the next instruction to run is an original-program
	// instruction, so every instrumentation block (store + tag update,
	// load + register taint) retires without an interleaved sibling
	// thread. The unsafe mode exists to reproduce the hazard on demand.
	UnsafePreempt bool

	// Engine selects the execution engine for unhooked Run and scheduler
	// slices (see block.go). The zero value is the block engine. Step,
	// and every hooked or profiled slice, always use the interpreter.
	Engine Engine

	// BlockStats counts this machine's translation-cache traffic under
	// the block engine, so only unhooked, unprofiled slices add to it.
	// Reset zeroes the counters (like Cycles/Retired); the cache itself
	// survives.
	BlockStats BlockStats

	// profile, when non-nil (see EnableProfile), counts retirements per
	// instruction index.
	profile []uint64

	// tc is the attached translation cache, normally the program's own
	// (see translations). It survives Reset: compiled blocks are a
	// property of the program text, not of one run.
	tc *TransCache
}

// HaltPC is the sentinel return address given to spawned threads: a
// return to it halts the thread cleanly (its function's result becomes
// the thread's exit status).
const HaltPC = -1

// DefaultBudget is the runaway guard applied when Budget is zero.
const DefaultBudget = 2_000_000_000

// New builds a machine over a linked program and memory.
func New(p *isa.Program, m *mem.Memory) *Machine {
	mach := &Machine{Prog: p, Mem: m, Costs: DefaultCosts()}
	mach.PR[0] = true
	mach.PC = p.Entry
	return mach
}

// Reset rewinds execution state (registers, accounting) but not memory.
// The profile survives with its counters zeroed: EnableProfile expresses
// a standing request for accounting, not a per-run one, so a Reset must
// not silently turn it off. The engine
// selection and translation cache survive for the same reason — the
// cache holds compiled program text, which a Reset does not change, so
// dropping it would force a full recompile on every rerun.
//
// Per-run identity does NOT survive: TID and Hook are cleared. Both
// belong to one run — the TID is assigned by that run's scheduler, and
// the hook (oracle, tracer, tag pipeline) holds that run's shadow
// state — so carrying them into a reused machine misattributes the next
// run's trace slices to the previous thread and feeds a live checker a
// machine it no longer models. A pooled guest recycled with a stale
// hook would hand request N's oracle request N+1's retirement stream.
func (m *Machine) Reset() {
	prof := m.profile
	clear(prof)
	*m = Machine{Prog: m.Prog, Mem: m.Mem, OS: m.OS, Feat: m.Feat, Costs: m.Costs, Budget: m.Budget, UnsafePreempt: m.UnsafePreempt, Engine: m.Engine, tc: m.tc, profile: prof}
	m.PR[0] = true
	m.PC = m.Prog.Entry
}

// setGR writes a general register with a NaT bit, preserving r0 == 0.
func (m *Machine) setGR(r uint8, v int64, nat bool) {
	if r == isa.RegZero {
		return
	}
	m.GR[r] = v
	m.NaT[r] = nat
}

// trap builds a trap for the current instruction.
func (m *Machine) trap(kind TrapKind, ins *isa.Instruction, addr uint64, reg uint8, err error) *Trap {
	return &Trap{Kind: kind, PC: m.PC, Addr: addr, Reg: reg, Ins: ins.String(), Err: err}
}

// charge accounts cycles to the instruction's cost class.
func (m *Machine) charge(ins *isa.Instruction, cycles uint64) {
	m.Cycles += cycles
	m.CyclesByClass[ins.Class] += cycles
}

// resolveBudget returns the effective retirement bound.
func (m *Machine) resolveBudget() uint64 {
	if m.Budget == 0 {
		return DefaultBudget
	}
	return m.Budget
}

// Step executes one instruction. It returns a trap on a fault and nil
// otherwise. After a clean exit syscall, Halted is true. Run and the
// scheduler's slice loop use exec directly so the interpreter loop stays
// inside one function call; Step is the convenience for
// single-instruction callers.
func (m *Machine) Step() *Trap {
	return m.exec(m.Prog.Text, m.resolveBudget(), 0, true)
}

// exec is the interpreter core: it retires instructions until the machine
// halts, requests a yield, reaches sliceEnd cycles, or traps (one
// instruction when single is set — the slice conditions sit at the bottom
// of the loop, so the first instruction always runs). Keeping the loop
// inside the function means the call overhead and budget/text hoisting
// are paid per slice, not per instruction. Trap construction — including
// the instruction disassembly carried in Trap.Ins — happens only on paths
// where a trap actually escapes, so the common path allocates nothing.
func (m *Machine) exec(text []isa.Instruction, budget, sliceEnd uint64, single bool) *Trap {
	// Loop-invariant state is hoisted once per slice instead of re-read
	// per retirement: the hook, profile, preemption mode and cost
	// table are all fixed before a run starts (budget resolution is
	// likewise per-slice — the callers pass it in). The slice-boundary
	// test at the bottom uses the hoisted copies inline; it is the
	// tag-coherent preemption rule documented on UnsafePreempt.
	n := uint(len(text))
	prof := m.profile
	h := m.Hook
	unsafePre := m.UnsafePreempt
	c := &m.Costs
	for {
		// One unsigned compare covers both out-of-range directions (HaltPC
		// is negative, so it lands here too).
		if uint(m.PC) >= n {
			if m.PC == HaltPC {
				m.Halt(m.GR[isa.RegRet])
				return nil
			}
			return &Trap{Kind: TrapBadPC, PC: m.PC, Ins: "<none>"}
		}
		if m.Retired >= budget {
			return &Trap{Kind: TrapBudget, PC: m.PC, Ins: text[m.PC].String()}
		}
		ins := &text[m.PC]
		m.Retired++
		if prof != nil {
			prof[m.PC]++
		}
		if h != nil {
			h.PreStep(m, ins)
		}

		// Qualifying predicate: a predicated-off instruction consumes its
		// fetch slot but performs no architectural work.
		if ins.Qp != 0 && !m.PR[ins.Qp] {
			m.charge(ins, c.PredOff)
			if h != nil {
				if err := h.PostStep(m, ins); err != nil {
					return m.trap(TrapOracle, ins, 0, 0, err)
				}
			}
			m.PC++
			if single || m.YieldReq || (m.Cycles >= sliceEnd && (unsafePre || uint(m.PC) >= n || text[m.PC].Class == isa.ClassOrig)) {
				return nil
			}
			continue
		}

		next := m.PC + 1

		// ALU operations are individual case arms with the operator applied
		// in place: the shared helper this replaced cost a call plus a second
		// opcode dispatch on the interpreter's hottest instructions.
		switch ins.Op {
		case isa.OpAdd:
			m.setGR(ins.Dest, m.GR[ins.Src1]+m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpSub:
			// The sub self-clearing idiom (paper §3.2): the result is
			// independent of the register's content, so the token clears.
			if ins.Src1 == ins.Src2 {
				m.setGR(ins.Dest, 0, false)
			} else {
				m.setGR(ins.Dest, m.GR[ins.Src1]-m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			}
			m.charge(ins, c.ALU)

		case isa.OpAnd:
			m.setGR(ins.Dest, m.GR[ins.Src1]&m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpAndcm:
			m.setGR(ins.Dest, m.GR[ins.Src1]&^m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpOr:
			m.setGR(ins.Dest, m.GR[ins.Src1]|m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpXor:
			// The xor self-clearing idiom, as for sub.
			if ins.Src1 == ins.Src2 {
				m.setGR(ins.Dest, 0, false)
			} else {
				m.setGR(ins.Dest, m.GR[ins.Src1]^m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			}
			m.charge(ins, c.ALU)

		case isa.OpShl:
			m.setGR(ins.Dest, m.GR[ins.Src1]<<(uint64(m.GR[ins.Src2])&63), m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpShr:
			m.setGR(ins.Dest, int64(uint64(m.GR[ins.Src1])>>(uint64(m.GR[ins.Src2])&63)), m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpSar:
			m.setGR(ins.Dest, m.GR[ins.Src1]>>(uint64(m.GR[ins.Src2])&63), m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.ALU)

		case isa.OpMul:
			m.setGR(ins.Dest, m.GR[ins.Src1]*m.GR[ins.Src2], m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.MulDiv)

		case isa.OpDiv:
			b := m.GR[ins.Src2]
			if b == 0 {
				return m.trap(TrapDivZero, ins, 0, 0, nil)
			}
			m.setGR(ins.Dest, m.GR[ins.Src1]/b, m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.MulDiv)

		case isa.OpRem:
			b := m.GR[ins.Src2]
			if b == 0 {
				return m.trap(TrapDivZero, ins, 0, 0, nil)
			}
			m.setGR(ins.Dest, m.GR[ins.Src1]%b, m.NaT[ins.Src1] || m.NaT[ins.Src2])
			m.charge(ins, c.MulDiv)

		case isa.OpAddi:
			m.setGR(ins.Dest, m.GR[ins.Src1]+ins.Imm, m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpAndi:
			m.setGR(ins.Dest, m.GR[ins.Src1]&ins.Imm, m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpOri:
			m.setGR(ins.Dest, m.GR[ins.Src1]|ins.Imm, m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpXori:
			m.setGR(ins.Dest, m.GR[ins.Src1]^ins.Imm, m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpShli:
			m.setGR(ins.Dest, m.GR[ins.Src1]<<(uint64(ins.Imm)&63), m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpShri:
			m.setGR(ins.Dest, int64(uint64(m.GR[ins.Src1])>>(uint64(ins.Imm)&63)), m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpSari:
			m.setGR(ins.Dest, m.GR[ins.Src1]>>(uint64(ins.Imm)&63), m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpMov:
			m.setGR(ins.Dest, m.GR[ins.Src1], m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpMovl:
			m.setGR(ins.Dest, ins.Imm, false)
			m.charge(ins, c.Movl)

		case isa.OpCmp, isa.OpCmpi:
			var b int64
			var natB bool
			if ins.Op == isa.OpCmp {
				b, natB = m.GR[ins.Src2], m.NaT[ins.Src2]
			} else {
				b = ins.Imm
			}
			if m.NaT[ins.Src1] || natB {
				// NaT-sensitive: clear both predicate targets so neither
				// branch direction commits state (paper §3.1).
				m.setPR(ins.P1, false)
				m.setPR(ins.P2, false)
			} else {
				r := ins.Cond.Eval(m.GR[ins.Src1], b)
				m.setPR(ins.P1, r)
				m.setPR(ins.P2, !r)
			}
			m.charge(ins, c.ALU)

		case isa.OpCmpNa, isa.OpCmpiNa:
			if !m.Feat.NaTAwareCmp {
				return m.trap(TrapIllegal, ins, 0, 0, fmt.Errorf("cmp.na requires the NaT-aware-compare enhancement"))
			}
			var b int64
			if ins.Op == isa.OpCmpNa {
				b = m.GR[ins.Src2]
			} else {
				b = ins.Imm
			}
			r := ins.Cond.Eval(m.GR[ins.Src1], b)
			m.setPR(ins.P1, r)
			m.setPR(ins.P2, !r)
			m.charge(ins, c.ALU)

		case isa.OpTnat:
			m.setPR(ins.P1, m.NaT[ins.Src1])
			m.setPR(ins.P2, !m.NaT[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpLd:
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTLoadAddr, ins, uint64(m.GR[ins.Src1]), ins.Src1, nil)
			}
			addr := uint64(m.GR[ins.Src1])
			v, missed, fault := m.read(addr, int(ins.Size))
			if fault != nil {
				return m.trap(TrapMemFault, ins, addr, 0, fault)
			}
			// A plain load always clears the destination's NaT bit; this is
			// the behaviour SHIFT exploits to strip a token (§4.1).
			m.setGR(ins.Dest, int64(v), false)
			m.chargeLoad(ins, missed)

		case isa.OpLdS:
			// Control-speculative load: faults (including a NaT'd address)
			// become a deferred-exception token instead of a trap. Deferral
			// is not free: the failed access runs to completion first.
			if m.NaT[ins.Src1] {
				m.setGR(ins.Dest, 0, true)
				m.charge(ins, c.Ld+c.Defer)
				break
			}
			addr := uint64(m.GR[ins.Src1])
			v, missed, fault := m.read(addr, int(ins.Size))
			if fault != nil {
				m.setGR(ins.Dest, 0, true)
				m.charge(ins, c.Ld+c.Defer)
				break
			}
			m.setGR(ins.Dest, int64(v), false)
			m.chargeLoad(ins, missed)

		case isa.OpLdFill:
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTLoadAddr, ins, uint64(m.GR[ins.Src1]), ins.Src1, nil)
			}
			addr := uint64(m.GR[ins.Src1])
			v, missed, fault := m.read(addr, 8)
			if fault != nil {
				return m.trap(TrapMemFault, ins, addr, 0, fault)
			}
			m.setGR(ins.Dest, int64(v), m.UNAT>>uint(ins.Imm)&1 != 0)
			m.chargeLoad(ins, missed)
			m.charge(ins, c.SpillFill)

		case isa.OpSt:
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTStoreAddr, ins, uint64(m.GR[ins.Src1]), ins.Src1, nil)
			}
			if m.NaT[ins.Src2] {
				// Plain stores may not consume a token (§2.2): committing
				// speculative state to memory is irreversible.
				return m.trap(TrapNaTStoreData, ins, uint64(m.GR[ins.Src1]), ins.Src2, nil)
			}
			addr := uint64(m.GR[ins.Src1])
			if fault := m.Mem.Write(addr, int(ins.Size), uint64(m.GR[ins.Src2])); fault != nil {
				return m.trap(TrapMemFault, ins, addr, 0, fault)
			}
			m.charge(ins, c.St)

		case isa.OpStSpill:
			// st8.spill tolerates NaT'd *data* (the bit goes to UNAT), but
			// the address must still be clean.
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTStoreAddr, ins, uint64(m.GR[ins.Src1]), ins.Src1, nil)
			}
			addr := uint64(m.GR[ins.Src1])
			if fault := m.Mem.Write(addr, 8, uint64(m.GR[ins.Src2])); fault != nil {
				return m.trap(TrapMemFault, ins, addr, 0, fault)
			}
			bit := uint(ins.Imm)
			if m.NaT[ins.Src2] {
				m.UNAT |= 1 << bit
			} else {
				m.UNAT &^= 1 << bit
			}
			m.charge(ins, c.St+c.SpillFill)

		case isa.OpChkS:
			if m.NaT[ins.Src1] {
				next = ins.Target
				m.charge(ins, c.Br)
			} else {
				m.charge(ins, c.Chk)
			}

		case isa.OpBr:
			next = ins.Target
			m.charge(ins, c.Br)

		case isa.OpBrCall:
			m.BR[ins.B] = int64(m.PC + 1)
			next = ins.Target
			m.charge(ins, c.Br)

		case isa.OpBrRet, isa.OpBrInd:
			next = int(m.BR[ins.B])
			m.charge(ins, c.Br)

		case isa.OpMovToBr:
			if m.NaT[ins.Src1] {
				// The L3 hardware event: tainted data may not reach the
				// registers that control transfer of control.
				return m.trap(TrapNaTBranch, ins, 0, ins.Src1, nil)
			}
			m.BR[ins.B] = m.GR[ins.Src1]
			m.charge(ins, c.ALU)

		case isa.OpMovFromBr:
			m.setGR(ins.Dest, m.BR[ins.B], false)
			m.charge(ins, c.ALU)

		case isa.OpMovToUnat:
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTBranch, ins, 0, ins.Src1, nil)
			}
			m.UNAT = uint64(m.GR[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpMovFromUnat:
			m.setGR(ins.Dest, int64(m.UNAT), false)
			m.charge(ins, c.ALU)

		case isa.OpMovToCcv:
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTBranch, ins, 0, ins.Src1, nil)
			}
			m.CCV = uint64(m.GR[ins.Src1])
			m.charge(ins, c.ALU)

		case isa.OpMovFromCcv:
			m.setGR(ins.Dest, int64(m.CCV), false)
			m.charge(ins, c.ALU)

		case isa.OpCmpxchg:
			// Atomic by construction: the whole read-compare-write happens
			// within one Step, which the scheduler never splits.
			if m.NaT[ins.Src1] {
				return m.trap(TrapNaTStoreAddr, ins, uint64(m.GR[ins.Src1]), ins.Src1, nil)
			}
			if m.NaT[ins.Src2] {
				return m.trap(TrapNaTStoreData, ins, uint64(m.GR[ins.Src1]), ins.Src2, nil)
			}
			addr := uint64(m.GR[ins.Src1])
			old, missed, fault := m.read(addr, int(ins.Size))
			if fault != nil {
				return m.trap(TrapMemFault, ins, addr, 0, fault)
			}
			if old == m.CCV {
				if fault := m.Mem.Write(addr, int(ins.Size), uint64(m.GR[ins.Src2])); fault != nil {
					return m.trap(TrapMemFault, ins, addr, 0, fault)
				}
			}
			m.setGR(ins.Dest, int64(old), false)
			m.chargeLoad(ins, missed)
			m.charge(ins, c.St) // semaphore ops pay both halves

		case isa.OpSetNat:
			if !m.Feat.SetClrNaT {
				return m.trap(TrapIllegal, ins, 0, 0, fmt.Errorf("setnat requires the set/clear-NaT enhancement"))
			}
			m.NaT[ins.Dest] = ins.Dest != isa.RegZero
			m.charge(ins, c.ALU)

		case isa.OpClrNat:
			if !m.Feat.SetClrNaT {
				return m.trap(TrapIllegal, ins, 0, 0, fmt.Errorf("clrnat requires the set/clear-NaT enhancement"))
			}
			m.NaT[ins.Dest] = false
			m.charge(ins, c.ALU)

		case isa.OpSyscall:
			if m.OS == nil {
				return m.trap(TrapHostError, ins, 0, 0, fmt.Errorf("no syscall handler installed"))
			}
			m.charge(ins, c.Syscall)
			extra, trap := m.OS.Syscall(m, ins.Imm)
			m.charge(ins, extra)
			if trap != nil {
				return trap
			}
			// On halt the bottom-of-loop check ends the run; falling
			// through keeps the PostStep hook on the exit path.

		case isa.OpNop:
			m.charge(ins, c.Nop)

		default:
			return m.trap(TrapIllegal, ins, 0, 0, fmt.Errorf("undefined opcode"))
		}

		if h != nil {
			if err := h.PostStep(m, ins); err != nil {
				return m.trap(TrapOracle, ins, 0, 0, err)
			}
		}
		m.PC = next
		if single || m.Halted || m.YieldReq || (m.Cycles >= sliceEnd && (unsafePre || uint(m.PC) >= n || text[m.PC].Class == isa.ClassOrig)) {
			return nil
		}
	}
}

// read performs a data read and reports whether it missed in the L1 model.
func (m *Machine) read(addr uint64, size int) (v uint64, missed bool, fault *mem.Fault) {
	return m.Mem.ReadMiss(addr, size)
}

// chargeLoad charges a load, adding the miss penalty per the cache model.
func (m *Machine) chargeLoad(ins *isa.Instruction, missed bool) {
	cost := m.Costs.Ld
	if missed {
		cost += m.Costs.LdMiss
	}
	m.charge(ins, cost)
}

// setPR writes a predicate register, preserving p0 == true.
func (m *Machine) setPR(p uint8, v bool) {
	if p == 0 {
		return
	}
	m.PR[p] = v
}

// Halt stops execution with the given status (used by the exit syscall).
func (m *Machine) Halt(status int64) {
	m.Halted = true
	m.ExitStatus = status
}

// Run executes until halt or trap on the machine's selected engine. The
// budget resolution and text bounds are hoisted out of the
// per-instruction path (Budget and Prog are fixed before a run starts).
// Yield requests are meaningless without a scheduler and do not stop the
// run.
func (m *Machine) Run() *Trap {
	text := m.Prog.Text
	budget := m.resolveBudget()
	for !m.Halted {
		if trap := m.slice(text, budget, ^uint64(0)); trap != nil {
			return trap
		}
	}
	return nil
}
