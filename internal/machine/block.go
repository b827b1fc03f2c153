// Translated-block execution engine: the first time control reaches a
// basic block, its instructions are pre-decoded into a compact micro-op
// array (operand registers, immediates, cost classes and memory widths
// resolved; the self-clearing idioms recognized) and the array is cached
// in the program's translation cache keyed by entry PC. Subsequent
// executions run the micro-ops through one flat switch loop, skipping
// the fetch and operand-decode work of the reference interpreter in exec
// and binding fixed-width memory accesses to the mem package's
// specialized paths.
//
// The engine is an optimization, never a semantic fork: the interpreter
// remains the reference (the lockstep oracle's ground truth), and the
// block engine must be bit-identical to it in every observable —
// registers, NaT bits, traps, cycle accounting per cost class, retired
// counts, and the scheduler's slice-boundary decisions. Where exactness
// is cheaper to inherit than to re-derive (a retirement budget expiring
// mid-block), the engine delegates the slice to exec instead of
// duplicating its behaviour.
//
// The engine runs only hook-free slices: a slice with a StepHook or a
// profile attached goes to exec, which delivers PreStep/PostStep and
// per-PC accounting. Machine state is materialized lazily: within a
// block, PC and Retired live as (entry, index) in the driver and Cycles
// accumulates in a local; all three are written back only at block
// exits — terminators, traps, syscalls, and quantum expiry. The
// per-class cycle split stays eager (it is off the critical dependency
// chain), and the quantum check compares the local cycle counter after
// every micro-op, so tag-coherent expiry lands on exactly the
// instruction the interpreter would pick.
package machine

import (
	"fmt"
	"sync/atomic"

	"shift/internal/isa"
)

// Engine selects the execution engine for unhooked Run and scheduler
// slices. The zero value is the block engine, so machines default to
// it. Step, and every slice with a StepHook or profile attached, always
// use the interpreter (the reference path).
type Engine uint8

// Engines.
const (
	// EngineBlock executes cached pre-decoded basic blocks (default).
	EngineBlock Engine = iota
	// EngineInterp executes through the reference interpreter in exec.
	// It is the oracle's reference engine: the block engine is validated
	// against it, never the other way around.
	EngineInterp
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineBlock:
		return "block"
	case EngineInterp:
		return "interp"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// EngineFromString parses an engine name as used by -engine flags.
func EngineFromString(s string) (Engine, bool) {
	switch s {
	case "block":
		return EngineBlock, true
	case "interp":
		return EngineInterp, true
	}
	return 0, false
}

// uopKind is the pre-decoded dispatch key: the opcode specialized by
// whatever was resolvable at translation time (memory access width, the
// self-clearing xor/sub idiom). Terminator kinds are grouped at the
// end; they transfer control and always end a block.
type uopKind uint8

const (
	uAdd uopKind = iota
	uSub
	uClear // xor/sub with Src1 == Src2: the §3.2 self-clearing idiom
	uAnd
	uAndcm
	uOr
	uXor
	uShl
	uShr
	uSar
	uMul
	uDiv
	uRem
	uAddi
	uAndi
	uOri
	uXori
	uShli
	uShri
	uSari
	uMov
	uMovl
	uCmp
	uCmpi
	uCmpNa
	uCmpiNa
	uTnat
	uLd8
	uLd4
	uLd2
	uLd1
	uLdS8
	uLdS4
	uLdS2
	uLdS1
	uLdFill
	uSt8
	uSt4
	uSt2
	uSt1
	uStSpill
	uMovToBr
	uMovFromBr
	uMovToUnat
	uMovFromUnat
	uMovToCcv
	uMovFromCcv
	uCmpxchg
	uSetNat
	uClrNat
	uNop
	uIllegal

	// Terminators.
	uChkS
	uBr
	uBrCall
	uBrRet
	uBrInd
	uSyscall
)

// uop is one pre-decoded instruction: every operand field the execution
// arms need, flattened into a small struct so the fast driver walks a
// contiguous array with no pointer chasing. Cost *values* and feature
// gates are read from the machine at run time, never baked in here, so
// a cache shared across runs stays correct under differing Costs or
// Features — the translation depends on the program text alone.
type uop struct {
	kind  uopKind
	class isa.CostClass
	qp    uint8
	d     uint8
	s1    uint8
	s2    uint8
	p1    uint8
	p2    uint8
	b     uint8
	bit   uint8 // UNAT bit (spill/fill); access width (cmpxchg)
	cond  isa.Cond
	imm   int64
	tgt   int32
}

// block is one compiled basic block: a maximal straight-line run of
// instructions starting at entry, ended by a control-transfer
// terminator (branch, call, return, chk.s, syscall) or the end of the
// text. Blocks are immutable after compilation and safe to execute
// concurrently from any machine over the same program text.
type block struct {
	entry int
	n     int  // instruction count (== len(uops))
	term  bool // last uop is a terminator
	uops  []uop
	// ins holds the source instruction per op — cold data used only for
	// trap disassembly.
	ins []*isa.Instruction
	// preempt[i] reports whether pc entry+i+1 — the fall-through
	// successor of op i — is a tag-coherent preemption point (the next
	// instruction is original-program code, or past the text). It folds
	// exec's tag-coherent slice-boundary test into the translation step.
	preempt []bool
}

// BlockStats counts the machine's translation-cache traffic. Hits and
// misses are per block *execution*, compiled per block built by this
// machine, invalidations per stale cache dropped on a program swap or
// a Text reassignment. Reset zeroes the counters along with the other
// accounting; the cache itself survives.
type BlockStats struct {
	Compiled      uint64
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// TransCache is one program text's translation cache: compiled blocks
// indexed by entry PC. It hangs on the *isa.Program (EngineCache), so
// every machine over one program — pooled guests, spawned threads,
// Reset reruns — shares it. Lookups are lock-free atomic loads;
// concurrent first executions of the same block may compile it twice,
// which is benign — the blocks are identical and immutable, and the
// last store wins.
type TransCache struct {
	text   []isa.Instruction
	blocks []atomic.Pointer[block]
}

func newTransCache(text []isa.Instruction) *TransCache {
	return &TransCache{text: text, blocks: make([]atomic.Pointer[block], len(text))}
}

// compiledFor reports whether the cache was built for this very slice.
func (tc *TransCache) compiledFor(text []isa.Instruction) bool {
	return len(tc.text) == len(text) && (len(text) == 0 || &tc.text[0] == &text[0])
}

// lookup returns the compiled block starting at pc, compiling it on
// first use. pc must be a valid index into the cache's text.
func (tc *TransCache) lookup(m *Machine, pc int) *block {
	if b := tc.blocks[pc].Load(); b != nil {
		m.BlockStats.Hits++
		return b
	}
	m.BlockStats.Misses++
	b := compileBlock(tc.text, pc)
	tc.blocks[pc].Store(b)
	m.BlockStats.Compiled++
	return b
}

// Translations returns the machine's attached translation cache (nil
// before the block engine has run). Reset preserves it: the cache is a
// property of the program text, not of one run.
func (m *Machine) Translations() *TransCache { return m.tc }

// translations returns the cache valid for text. The fast path is one
// pointer identity check against the attached cache; on a miss (first
// run, or a program swap made the attached cache stale) the machine
// attaches its program's cache. If the program's Text was reassigned
// after that cache was built, the machine compiles into a private one.
func (m *Machine) translations(text []isa.Instruction) *TransCache {
	if tc := m.tc; tc != nil {
		if tc.compiledFor(text) {
			return tc
		}
		m.BlockStats.Invalidations++
	}
	tc := m.Prog.EngineCache(func() any { return newTransCache(m.Prog.Text) }).(*TransCache)
	if !tc.compiledFor(text) {
		tc = newTransCache(text)
	}
	m.tc = tc
	return tc
}

// slice executes one scheduling slice. Run and the Scheduler go through
// here so the engine choice is applied uniformly. A slice with a
// StepHook or profile attached always runs on the interpreter,
// the reference for per-instruction delivery; only unhooked slices
// reach the block engine. Step stays on the interpreter.
func (m *Machine) slice(text []isa.Instruction, budget, sliceEnd uint64) *Trap {
	if m.Engine == EngineInterp || m.Hook != nil || m.profile != nil {
		return m.exec(text, budget, sliceEnd, false)
	}
	return m.execBlocksFast(text, budget, sliceEnd)
}

// compileBlock pre-decodes the basic block starting at entry.
func compileBlock(text []isa.Instruction, entry int) *block {
	b := &block{entry: entry}
	for pc := entry; pc < len(text); pc++ {
		ins := &text[pc]
		u, term := encodeUop(ins)
		b.uops = append(b.uops, u)
		b.ins = append(b.ins, ins)
		b.preempt = append(b.preempt,
			pc+1 >= len(text) || text[pc+1].Class == isa.ClassOrig)
		if term {
			b.term = true
			break
		}
	}
	b.n = len(b.uops)
	return b
}

// encodeUop translates one instruction into its micro-op form. term
// marks control-transfer terminators.
func encodeUop(ins *isa.Instruction) (u uop, term bool) {
	u = uop{
		class: ins.Class, qp: ins.Qp,
		d: ins.Dest, s1: ins.Src1, s2: ins.Src2,
		p1: ins.P1, p2: ins.P2, b: ins.B,
		cond: ins.Cond, imm: ins.Imm, tgt: int32(ins.Target),
	}
	switch ins.Op {
	case isa.OpAdd:
		u.kind = uAdd
	case isa.OpSub:
		if ins.Src1 == ins.Src2 {
			u.kind = uClear
		} else {
			u.kind = uSub
		}
	case isa.OpAnd:
		u.kind = uAnd
	case isa.OpAndcm:
		u.kind = uAndcm
	case isa.OpOr:
		u.kind = uOr
	case isa.OpXor:
		if ins.Src1 == ins.Src2 {
			u.kind = uClear
		} else {
			u.kind = uXor
		}
	case isa.OpShl:
		u.kind = uShl
	case isa.OpShr:
		u.kind = uShr
	case isa.OpSar:
		u.kind = uSar
	case isa.OpMul:
		u.kind = uMul
	case isa.OpDiv:
		u.kind = uDiv
	case isa.OpRem:
		u.kind = uRem
	case isa.OpAddi:
		u.kind = uAddi
	case isa.OpAndi:
		u.kind = uAndi
	case isa.OpOri:
		u.kind = uOri
	case isa.OpXori:
		u.kind = uXori
	case isa.OpShli:
		u.kind = uShli
	case isa.OpShri:
		u.kind = uShri
	case isa.OpSari:
		u.kind = uSari
	case isa.OpMov:
		u.kind = uMov
	case isa.OpMovl:
		u.kind = uMovl
	case isa.OpCmp:
		u.kind = uCmp
	case isa.OpCmpi:
		u.kind = uCmpi
	case isa.OpCmpNa:
		u.kind = uCmpNa
	case isa.OpCmpiNa:
		u.kind = uCmpiNa
	case isa.OpTnat:
		u.kind = uTnat
	case isa.OpLd:
		switch ins.Size {
		case 8:
			u.kind = uLd8
		case 4:
			u.kind = uLd4
		case 2:
			u.kind = uLd2
		default:
			u.kind = uLd1
		}
	case isa.OpLdS:
		switch ins.Size {
		case 8:
			u.kind = uLdS8
		case 4:
			u.kind = uLdS4
		case 2:
			u.kind = uLdS2
		default:
			u.kind = uLdS1
		}
	case isa.OpLdFill:
		u.kind = uLdFill
		u.bit = uint8(ins.Imm)
	case isa.OpSt:
		switch ins.Size {
		case 8:
			u.kind = uSt8
		case 4:
			u.kind = uSt4
		case 2:
			u.kind = uSt2
		default:
			u.kind = uSt1
		}
	case isa.OpStSpill:
		u.kind = uStSpill
		u.bit = uint8(ins.Imm)
	case isa.OpChkS:
		u.kind = uChkS
		term = true
	case isa.OpBr:
		u.kind = uBr
		term = true
	case isa.OpBrCall:
		u.kind = uBrCall
		term = true
	case isa.OpBrRet:
		u.kind = uBrRet
		term = true
	case isa.OpBrInd:
		u.kind = uBrInd
		term = true
	case isa.OpMovToBr:
		u.kind = uMovToBr
	case isa.OpMovFromBr:
		u.kind = uMovFromBr
	case isa.OpMovToUnat:
		u.kind = uMovToUnat
	case isa.OpMovFromUnat:
		u.kind = uMovFromUnat
	case isa.OpMovToCcv:
		u.kind = uMovToCcv
	case isa.OpMovFromCcv:
		u.kind = uMovFromCcv
	case isa.OpCmpxchg:
		u.kind = uCmpxchg
		u.bit = ins.Size
	case isa.OpSetNat:
		u.kind = uSetNat
	case isa.OpClrNat:
		u.kind = uClrNat
	case isa.OpSyscall:
		u.kind = uSyscall
		term = true
	case isa.OpNop:
		u.kind = uNop
	default:
		u.kind = uIllegal
	}
	return u, term
}

// blockAbort materializes machine state at a fault inside a block's
// straight-line run — PC at the trapping instruction, the trapping
// instruction counted as retired (matching the interpreter's
// count-at-fetch), locally accumulated cycles written back — and builds
// the trap.
func (m *Machine) blockAbort(b *block, i int, cycles uint64, kind TrapKind, addr uint64, reg uint8, err error) *Trap {
	pc := b.entry + i
	m.PC = pc
	m.Retired += uint64(i + 1)
	m.Cycles = cycles
	return &Trap{Kind: kind, PC: pc, Addr: addr, Reg: reg, Ins: b.ins[i].String(), Err: err}
}

// execBlocksFast is the hook-free block engine slice loop, the drop-in
// counterpart of exec(text, budget, sliceEnd, false) when no StepHook
// or profile is attached. Exit conditions, trap state and
// accounting are bit-identical to the interpreter's; PC, Retired and
// Cycles are materialized lazily at block exits.
func (m *Machine) execBlocksFast(text []isa.Instruction, budget, sliceEnd uint64) *Trap {
	tc := m.translations(text)
	unsafePre := m.UnsafePreempt
	textLen := uint(len(text))
	mm := m.Mem
	co := &m.Costs
	cALU, cMovl, cMulDiv := co.ALU, co.Movl, co.MulDiv
	cLd, cLdMiss, cSt, cSpillFill := co.Ld, co.LdMiss, co.St, co.SpillFill
	cChk, cBr, cNop, cPredOff := co.Chk, co.Br, co.Nop, co.PredOff
	cSyscall, cDefer := co.Syscall, co.Defer
	byClass := &m.CyclesByClass
	cycles := m.Cycles
	for {
		pc := m.PC
		// One unsigned compare covers both out-of-range directions
		// (HaltPC is negative, so it lands here too) — same as exec.
		if uint(pc) >= textLen {
			m.Cycles = cycles
			if pc == HaltPC {
				m.Halt(m.GR[isa.RegRet])
				return nil
			}
			return &Trap{Kind: TrapBadPC, PC: pc, Ins: "<none>"}
		}
		b := tc.lookup(m, pc)
		if m.Retired+uint64(b.n) > budget {
			// The retirement budget expires inside this block. The
			// interpreter is the reference for the exact trap point and
			// state, so hand it the rest of the slice rather than
			// re-deriving those semantics here.
			m.Cycles = cycles
			return m.exec(text, budget, sliceEnd, false)
		}

		entry := b.entry
		steps := b.n
		if b.term {
			steps--
		}
		uops := b.uops
		for i := 0; i < steps; i++ {
			u := &uops[i]
			if u.qp != 0 && !m.PR[u.qp&63] {
				// Predicated off: the fetch slot is consumed, nothing
				// else happens.
				cycles += cPredOff
				byClass[u.class] += cPredOff
			} else {
				switch u.kind {
				case uAdd:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] + m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uSub:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] - m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uClear:
					// xor/sub self-clearing (§3.2): the result is
					// independent of the register's content, so the
					// token clears with it.
					if u.d != 0 {
						m.GR[u.d&127] = 0
						m.NaT[u.d&127] = false
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uAnd:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] & m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uAndcm:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] &^ m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uOr:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] | m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uXor:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] ^ m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uShl:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] << (uint64(m.GR[u.s2&127]) & 63)
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uShr:
					if u.d != 0 {
						m.GR[u.d&127] = int64(uint64(m.GR[u.s1&127]) >> (uint64(m.GR[u.s2&127]) & 63))
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uSar:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] >> (uint64(m.GR[u.s2&127]) & 63)
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uMul:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] * m.GR[u.s2&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cMulDiv
					byClass[u.class] += cMulDiv
				case uDiv:
					v := m.GR[u.s2&127]
					if v == 0 {
						return m.blockAbort(b, i, cycles, TrapDivZero, 0, 0, nil)
					}
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] / v
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cMulDiv
					byClass[u.class] += cMulDiv
				case uRem:
					v := m.GR[u.s2&127]
					if v == 0 {
						return m.blockAbort(b, i, cycles, TrapDivZero, 0, 0, nil)
					}
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] % v
						m.NaT[u.d&127] = m.NaT[u.s1&127] || m.NaT[u.s2&127]
					}
					cycles += cMulDiv
					byClass[u.class] += cMulDiv
				case uAddi:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] + u.imm
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uAndi:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] & u.imm
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uOri:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] | u.imm
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uXori:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] ^ u.imm
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uShli:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] << (uint64(u.imm) & 63)
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uShri:
					if u.d != 0 {
						m.GR[u.d&127] = int64(uint64(m.GR[u.s1&127]) >> (uint64(u.imm) & 63))
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uSari:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127] >> (uint64(u.imm) & 63)
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uMov:
					if u.d != 0 {
						m.GR[u.d&127] = m.GR[u.s1&127]
						m.NaT[u.d&127] = m.NaT[u.s1&127]
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uMovl:
					if u.d != 0 {
						m.GR[u.d&127] = u.imm
						m.NaT[u.d&127] = false
					}
					cycles += cMovl
					byClass[u.class] += cMovl
				case uCmp:
					if m.NaT[u.s1&127] || m.NaT[u.s2&127] {
						// NaT-sensitive: clear both predicate targets so
						// neither branch direction commits state (§3.1).
						if u.p1 != 0 {
							m.PR[u.p1&63] = false
						}
						if u.p2 != 0 {
							m.PR[u.p2&63] = false
						}
					} else {
						r := u.cond.Eval(m.GR[u.s1&127], m.GR[u.s2&127])
						if u.p1 != 0 {
							m.PR[u.p1&63] = r
						}
						if u.p2 != 0 {
							m.PR[u.p2&63] = !r
						}
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uCmpi:
					if m.NaT[u.s1&127] {
						if u.p1 != 0 {
							m.PR[u.p1&63] = false
						}
						if u.p2 != 0 {
							m.PR[u.p2&63] = false
						}
					} else {
						r := u.cond.Eval(m.GR[u.s1&127], u.imm)
						if u.p1 != 0 {
							m.PR[u.p1&63] = r
						}
						if u.p2 != 0 {
							m.PR[u.p2&63] = !r
						}
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uCmpNa, uCmpiNa:
					if !m.Feat.NaTAwareCmp {
						return m.blockAbort(b, i, cycles, TrapIllegal, 0, 0,
							fmt.Errorf("cmp.na requires the NaT-aware-compare enhancement"))
					}
					v := u.imm
					if u.kind == uCmpNa {
						v = m.GR[u.s2&127]
					}
					r := u.cond.Eval(m.GR[u.s1&127], v)
					if u.p1 != 0 {
						m.PR[u.p1&63] = r
					}
					if u.p2 != 0 {
						m.PR[u.p2&63] = !r
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uTnat:
					nat := m.NaT[u.s1&127]
					if u.p1 != 0 {
						m.PR[u.p1&63] = nat
					}
					if u.p2 != 0 {
						m.PR[u.p2&63] = !nat
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uLd8:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTLoadAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					v, missed, f := mm.Read8Miss(addr)
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					// A plain load always clears the destination's NaT
					// bit — the behaviour SHIFT exploits to strip a
					// token (§4.1).
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = false
					}
					c := cLd
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uLd4:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTLoadAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					v, missed, f := mm.Read4Miss(addr)
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = false
					}
					c := cLd
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uLd2:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTLoadAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					v, missed, f := mm.Read2Miss(addr)
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = false
					}
					c := cLd
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uLd1:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTLoadAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					v, missed, f := mm.Read1Miss(addr)
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = false
					}
					c := cLd
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uLdS8, uLdS4, uLdS2, uLdS1:
					// Control-speculative load: faults (including a
					// NaT'd address) become a deferred-exception token
					// instead of a trap. Deferral is not free: the
					// failed access runs to completion first.
					if m.NaT[u.s1&127] {
						if u.d != 0 {
							m.GR[u.d&127] = 0
							m.NaT[u.d&127] = true
						}
						cycles += cLd + cDefer
						byClass[u.class] += cLd + cDefer
						break
					}
					addr := uint64(m.GR[u.s1&127])
					var v uint64
					var missed bool
					var fault error
					switch u.kind {
					case uLdS8:
						r, mi, f := mm.Read8Miss(addr)
						v, missed = r, mi
						if f != nil {
							fault = f
						}
					case uLdS4:
						r, mi, f := mm.Read4Miss(addr)
						v, missed = r, mi
						if f != nil {
							fault = f
						}
					case uLdS2:
						r, mi, f := mm.Read2Miss(addr)
						v, missed = r, mi
						if f != nil {
							fault = f
						}
					default:
						r, mi, f := mm.Read1Miss(addr)
						v, missed = r, mi
						if f != nil {
							fault = f
						}
					}
					if fault != nil {
						if u.d != 0 {
							m.GR[u.d&127] = 0
							m.NaT[u.d&127] = true
						}
						cycles += cLd + cDefer
						byClass[u.class] += cLd + cDefer
						break
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = false
					}
					c := cLd
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uLdFill:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTLoadAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					v, missed, f := mm.Read8Miss(addr)
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(v)
						m.NaT[u.d&127] = m.UNAT>>uint(u.bit)&1 != 0
					}
					c := cLd + cSpillFill
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uSt8:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					if m.NaT[u.s2&127] {
						// Plain stores may not consume a token (§2.2).
						return m.blockAbort(b, i, cycles, TrapNaTStoreData, uint64(m.GR[u.s1&127]), u.s2, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					if f := mm.Write8(addr, uint64(m.GR[u.s2&127])); f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					cycles += cSt
					byClass[u.class] += cSt
				case uSt4:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					if m.NaT[u.s2&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreData, uint64(m.GR[u.s1&127]), u.s2, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					if f := mm.Write4(addr, uint64(m.GR[u.s2&127])); f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					cycles += cSt
					byClass[u.class] += cSt
				case uSt2:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					if m.NaT[u.s2&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreData, uint64(m.GR[u.s1&127]), u.s2, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					if f := mm.Write2(addr, uint64(m.GR[u.s2&127])); f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					cycles += cSt
					byClass[u.class] += cSt
				case uSt1:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					if m.NaT[u.s2&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreData, uint64(m.GR[u.s1&127]), u.s2, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					if f := mm.Write1(addr, uint64(m.GR[u.s2&127])); f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					cycles += cSt
					byClass[u.class] += cSt
				case uStSpill:
					// st8.spill tolerates NaT'd *data* (the bit goes to
					// UNAT), but the address must still be clean.
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					if f := mm.Write8(addr, uint64(m.GR[u.s2&127])); f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if m.NaT[u.s2&127] {
						m.UNAT |= 1 << uint(u.bit)
					} else {
						m.UNAT &^= 1 << uint(u.bit)
					}
					cycles += cSt + cSpillFill
					byClass[u.class] += cSt + cSpillFill
				case uMovToBr:
					if m.NaT[u.s1&127] {
						// The L3 hardware event: tainted data may not
						// reach the registers that control transfer of
						// control.
						return m.blockAbort(b, i, cycles, TrapNaTBranch, 0, u.s1, nil)
					}
					m.BR[u.b&7] = m.GR[u.s1&127]
					cycles += cALU
					byClass[u.class] += cALU
				case uMovFromBr:
					if u.d != 0 {
						m.GR[u.d&127] = m.BR[u.b&7]
						m.NaT[u.d&127] = false
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uMovToUnat:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTBranch, 0, u.s1, nil)
					}
					m.UNAT = uint64(m.GR[u.s1&127])
					cycles += cALU
					byClass[u.class] += cALU
				case uMovFromUnat:
					if u.d != 0 {
						m.GR[u.d&127] = int64(m.UNAT)
						m.NaT[u.d&127] = false
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uMovToCcv:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTBranch, 0, u.s1, nil)
					}
					m.CCV = uint64(m.GR[u.s1&127])
					cycles += cALU
					byClass[u.class] += cALU
				case uMovFromCcv:
					if u.d != 0 {
						m.GR[u.d&127] = int64(m.CCV)
						m.NaT[u.d&127] = false
					}
					cycles += cALU
					byClass[u.class] += cALU
				case uCmpxchg:
					if m.NaT[u.s1&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreAddr, uint64(m.GR[u.s1&127]), u.s1, nil)
					}
					if m.NaT[u.s2&127] {
						return m.blockAbort(b, i, cycles, TrapNaTStoreData, uint64(m.GR[u.s1&127]), u.s2, nil)
					}
					addr := uint64(m.GR[u.s1&127])
					old, missed, f := mm.ReadMiss(addr, int(u.bit))
					if f != nil {
						return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
					}
					if old == m.CCV {
						if f := mm.Write(addr, int(u.bit), uint64(m.GR[u.s2&127])); f != nil {
							return m.blockAbort(b, i, cycles, TrapMemFault, addr, 0, f)
						}
					}
					if u.d != 0 {
						m.GR[u.d&127] = int64(old)
						m.NaT[u.d&127] = false
					}
					c := cLd + cSt // semaphore ops pay both halves
					if missed {
						c += cLdMiss
					}
					cycles += c
					byClass[u.class] += c
				case uSetNat:
					if !m.Feat.SetClrNaT {
						return m.blockAbort(b, i, cycles, TrapIllegal, 0, 0,
							fmt.Errorf("setnat requires the set/clear-NaT enhancement"))
					}
					m.NaT[u.d&127] = u.d != isa.RegZero
					cycles += cALU
					byClass[u.class] += cALU
				case uClrNat:
					if !m.Feat.SetClrNaT {
						return m.blockAbort(b, i, cycles, TrapIllegal, 0, 0,
							fmt.Errorf("clrnat requires the set/clear-NaT enhancement"))
					}
					m.NaT[u.d&127] = false
					cycles += cALU
					byClass[u.class] += cALU
				case uNop:
					cycles += cNop
					byClass[u.class] += cNop
				default:
					return m.blockAbort(b, i, cycles, TrapIllegal, 0, 0,
						fmt.Errorf("undefined opcode"))
				}
			}
			if cycles >= sliceEnd && (b.preempt[i] || unsafePre) {
				// Tag-coherent quantum expiry, at exactly the boundary
				// the interpreter's bottom-of-loop test would pick.
				m.PC = entry + i + 1
				m.Retired += uint64(i + 1)
				m.Cycles = cycles
				return nil
			}
		}

		// Straight-line ops done; materialize state at the terminator
		// (the OS model reads PC, Retired and Cycles, and a trapping
		// terminator must leave interpreter-identical state).
		m.PC = entry + steps
		m.Retired += uint64(b.n)
		if !b.term {
			// Fell off the end of the text mid-chain; the top-of-loop
			// check classifies the out-of-range PC. The slice check for
			// the final op already ran inside the loop.
			continue
		}
		u := &uops[steps]
		npc := entry + steps + 1
		if u.qp != 0 && !m.PR[u.qp&63] {
			cycles += cPredOff
			byClass[u.class] += cPredOff
		} else {
			switch u.kind {
			case uBr:
				npc = int(u.tgt)
				cycles += cBr
				byClass[u.class] += cBr
			case uBrCall:
				m.BR[u.b&7] = int64(entry + steps + 1)
				npc = int(u.tgt)
				cycles += cBr
				byClass[u.class] += cBr
			case uBrRet, uBrInd:
				npc = int(m.BR[u.b&7])
				cycles += cBr
				byClass[u.class] += cBr
			case uChkS:
				if m.NaT[u.s1&127] {
					npc = int(u.tgt)
					cycles += cBr
					byClass[u.class] += cBr
				} else {
					cycles += cChk
					byClass[u.class] += cChk
				}
			case uSyscall:
				if m.OS == nil {
					m.Cycles = cycles
					return &Trap{Kind: TrapHostError, PC: m.PC, Ins: b.ins[steps].String(),
						Err: fmt.Errorf("no syscall handler installed")}
				}
				// The handler observes fully materialized state, cycles
				// included (trace timestamps, world time).
				m.Cycles = cycles + cSyscall
				byClass[u.class] += cSyscall
				extra, trap := m.OS.Syscall(m, u.imm)
				m.Cycles += extra
				byClass[u.class] += extra
				cycles = m.Cycles
				if trap != nil {
					return trap
				}
			}
		}
		m.PC = npc
		if m.Halted || m.YieldReq {
			m.Cycles = cycles
			return nil
		}
		if cycles >= sliceEnd && (unsafePre || uint(npc) >= textLen || text[npc].Class == isa.ClassOrig) {
			m.Cycles = cycles
			return nil
		}
	}
}
