// Package isa defines the instruction set of the simulated processor.
//
// The ISA is a 64-bit, IA-64-flavoured machine: 128 general registers each
// carrying a NaT (Not-a-Thing) deferred-exception bit, 64 one-bit predicate
// registers, 8 branch registers and a UNAT register collecting spilled NaT
// bits. It provides the speculation primitives SHIFT builds on — ld.s,
// chk.s, st8.spill/ld8.fill, tnat — plus the three instructions the paper
// proposes as minor architectural enhancements (setnat, clrnat, cmp.na),
// which the machine only accepts when the corresponding feature is enabled.
package isa

import "fmt"

// Register file geometry.
const (
	NumGR = 128 // general registers r0..r127; r0 is hardwired to zero
	NumPR = 64  // predicate registers p0..p63; p0 is hardwired to true
	NumBR = 8   // branch registers b0..b7
)

// Conventional register assignments used by the code generator and the
// instrumentation pass. The instrumentation registers are reserved: the
// code generator never allocates them, so the SHIFT pass may clobber them
// between any two instructions, mirroring how the paper's GCC pass runs
// after register allocation on registers it has set aside.
const (
	RegZero = 0   // always zero, never NaT
	RegRet  = 8   // function return value
	RegSP   = 12  // stack pointer
	RegGP   = 13  // global data pointer (base of the data region)
	RegTmp0 = 14  // first code-generator scratch register
	RegTmpN = 31  // last code-generator scratch register
	RegArg0 = 32  // first argument register
	RegArgN = 39  // last argument register
	RegLoc0 = 40  // first register-allocated local
	RegLocN = 107 // last register-allocated local

	RegKeep   = 119 // kept OffsetMask register (instrumentation, Optimize)
	RegInstr0 = 120 // first instrumentation scratch register
	RegInstrN = 126 // last instrumentation scratch register
	RegNaT    = 127 // holds value 0 with NaT set: the taint source register
)

// Opcode identifies an instruction.
type Opcode uint8

// Instruction opcodes.
const (
	OpInvalid Opcode = iota

	// ALU, register-register. NaT bits of both sources propagate (OR) to
	// the destination, except for the xor/sub same-register idioms which
	// the machine recognises as taint-clearing (paper §3.2).
	OpAdd
	OpSub
	OpAnd
	OpAndcm // and-complement: dest = src1 &^ src2
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpMul
	OpDiv // signed divide; divide by zero faults
	OpRem // signed remainder

	// ALU, register-immediate (src2 is Imm).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri
	OpSari

	// Moves. Movl carries a full 64-bit immediate and, like the Itanium
	// movl, occupies two issue slots (the cost model charges it double).
	OpMov  // dest = src1
	OpMovl // dest = Imm

	// Compares write two complementary predicates P1 and P2. The plain
	// forms are NaT-sensitive: if either source carries NaT, both target
	// predicates are cleared to zero (speculation-safe, DIFT-hostile,
	// paper §3.1). The .na forms (enhancement 3) ignore NaT and compare
	// the values. Cond selects the relation.
	OpCmp    // register-register
	OpCmpi   // register-immediate
	OpCmpNa  // NaT-aware register-register (requires FeatNaTAwareCmp)
	OpCmpiNa // NaT-aware register-immediate (requires FeatNaTAwareCmp)

	// Test NaT: P1 = NaT(src1), P2 = !NaT(src1). Never faults.
	OpTnat

	// Memory. Size selects the access width (1, 2, 4 or 8 bytes).
	OpLd      // non-speculative load; NaT address => NaT-consumption fault
	OpLdS     // speculative load; any fault sets NaT in dest, value 0
	OpLdFill  // ld8.fill: load 8 bytes and restore NaT from UNAT bit Imm
	OpSt      // non-speculative store; NaT address or NaT data faults
	OpStSpill // st8.spill: store 8 bytes, save NaT into UNAT bit Imm, no data fault

	// Speculation check: if NaT(src1), branch to Target (recovery code).
	OpChkS

	// Branches. Branch targets are instruction indices after linking.
	OpBr     // unconditional (subject to the qualifying predicate)
	OpBrCall // call: saves PC+1 into branch register B, jumps to Target
	OpBrRet  // return: jumps to branch register B
	OpBrInd  // indirect branch through branch register B

	// Branch-register moves. Moving a NaT'd value into a branch register
	// raises a NaT-consumption fault (the hardware half of policy L3).
	OpMovToBr   // B = src1
	OpMovFromBr // dest = B

	// UNAT moves (Itanium: mov ar.unat). Compiled code saves and
	// restores the UNAT application register around spill regions so
	// NaT bits survive nested function calls.
	OpMovToUnat   // UNAT = src1; a NaT'd source faults
	OpMovFromUnat // dest = UNAT

	// Compare-and-exchange (Itanium: cmpxchg with ar.ccv). The access
	// is atomic with respect to thread preemption: dest receives the
	// old memory value, and memory is replaced by src2 only when the
	// old value equals the CCV application register. The serialized-
	// tag-update mode builds its lock-free bitmap RMW on this.
	OpMovToCcv   // CCV = src1; a NaT'd source faults
	OpMovFromCcv // dest = CCV
	OpCmpxchg    // dest = [src1]; if dest == CCV then [src1] = src2

	// Proposed architectural enhancements (paper §4.4/§6.3). Illegal
	// unless the machine is configured with the matching feature.
	OpSetNat // set NaT of dest, value preserved (requires FeatSetClrNaT)
	OpClrNat // clear NaT of dest (requires FeatSetClrNaT)

	// System call: number in Imm, arguments in r32.. per the OS model.
	// Scalar arguments carrying NaT raise a NaT-consumption fault before
	// the handler runs (the hardware half of the syscall sink policies).
	OpSyscall

	OpNop

	// NumOpcodes is one past the last valid opcode; usable as an array
	// bound for per-opcode accounting.
	NumOpcodes
)

// Cond is a compare relation.
type Cond uint8

// Compare relations (signed unless suffixed U).
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondLTU
	CondGEU
	CondLEU
	CondGTU

	// NumConds is the number of compare relations.
	NumConds
)

// CostClass attributes an instruction's cycles to a source, so the
// machine's accounting reproduces the paper's Figure 9 breakdown.
type CostClass uint8

// Cost classes. The load/store × compute/memory split is exactly the
// paper's Figure 9 axes.
const (
	ClassOrig         CostClass = iota // original program instruction
	ClassLoadCompute                   // tag-address computation for a load
	ClassLoadTagMem                    // tag bitmap access for a load
	ClassStoreCompute                  // tag-address computation for a store
	ClassStoreTagMem                   // tag bitmap access for a store
	ClassRelax                         // compare-relaxation sequence
	ClassNatGen                        // NaT generation / set / clear
	NumCostClasses
)

// String returns the class name used in reports.
func (c CostClass) String() string {
	switch c {
	case ClassOrig:
		return "orig"
	case ClassLoadCompute:
		return "ld-compute"
	case ClassLoadTagMem:
		return "ld-tag-mem"
	case ClassStoreCompute:
		return "st-compute"
	case ClassStoreTagMem:
		return "st-tag-mem"
	case ClassRelax:
		return "relax"
	case ClassNatGen:
		return "nat-gen"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Instruction is one decoded instruction. The zero value is OpInvalid.
//
// Qp is the qualifying predicate: the instruction executes only when
// predicate Qp is true. Qp 0 (p0, hardwired true) means unconditional.
type Instruction struct {
	Op   Opcode
	Qp   uint8 // qualifying predicate register
	Dest uint8 // destination GR
	Src1 uint8 // first source GR
	Src2 uint8 // second source GR
	P1   uint8 // first target predicate (compares, tnat)
	P2   uint8 // second target predicate
	B    uint8 // branch register (calls, returns, br moves)
	Size uint8 // memory access width in bytes (1, 2, 4, 8)
	Cond Cond  // compare relation
	Imm  int64 // immediate / syscall number / UNAT bit index

	// Label is a symbolic branch target before linking; Target is the
	// resolved instruction index afterwards.
	Label  string
	Target int

	// Class attributes the instruction's cost (Figure 9 accounting).
	Class CostClass

	// ABI marks calling-convention bookkeeping (return-address and UNAT
	// saves, callee-save spills/fills, call-site temp preservation).
	// The instrumentation pass leaves such accesses alone: their NaT
	// bits travel through UNAT, not the memory bitmap, so they carry no
	// program data flow. Lost in textual round-trips.
	ABI bool

	// Sym names the label(s) attached to this instruction, if any; kept
	// for disassembly and diagnostics only.
	Sym string
}

// Flow is an opcode's taint-transfer kind: how the instruction moves
// taint (under SHIFT, the NaT bit) from its inputs to what it writes.
// It is the one statement of the propagation rules; the lockstep oracle,
// the decoupled tag pipeline, the reachability analysis, the contract
// checker's NaT dataflow and the instrumentation pass's clean-compare
// tracker each switch on it and read each kind in their own terms. The
// machine does not consult it: it is the independent hardware model the
// checkers hold the table against.
type Flow uint8

// Transfer kinds. The zero value is no kind: every opcode names its own
// in opTable, so a forgotten entry shows up in the isa tests.
const (
	// FlowNone: no taint flows and no general register is written —
	// compares, tnat, branches, chk.s, nop, mov.tobr, mov.tounat. The
	// syscall is FlowNone too: its r8 rule belongs to the OS boundary,
	// which every consumer handles on its own.
	FlowNone Flow = iota + 1
	// FlowUnion: dest's taint becomes taint(src1) | taint(src2), the
	// two-source ALU ops. xor and sub with src1 == src2 are the
	// self-clearing idioms of paper §3.2: Instruction.Flow resolves them
	// to FlowClear.
	FlowUnion
	// FlowCopy: dest's taint becomes taint(src1) — the immediate ALU
	// forms and mov.
	FlowCopy
	// FlowClear: dest is clean — movl, the self-clearing xor/sub idiom,
	// mov.frombr (branch registers never hold tainted data: mov.tobr
	// faults on NaT) and mov.fromunat (UNAT is tag metadata, not data).
	FlowClear
	// FlowLoad: a plain load; dest's taint is the OR over the accessed
	// units. The machine always clears dest's NaT bit — the stripping
	// behaviour SHIFT launders with (§4.1), which checkers assert.
	FlowLoad
	// FlowLoadSpec: ld.s; as FlowLoad, except that a deferred access
	// manufactures a NaT token instead of data, and SHIFT's one-bit
	// encoding cannot tell that token apart from taint: it counts as
	// taint.
	FlowLoadSpec
	// FlowFill: ld8.fill; taint comes straight from the spilled 8-byte
	// unit, while the NaT bit comes from UNAT.
	FlowFill
	// FlowStore: st and st8.spill; the accessed units take taint(src2).
	FlowStore
	// FlowCmpxchg: a load of the old value and, when the compare
	// succeeds, a store of the new one: dest takes the location's old
	// taint, and a committed exchange stores taint(src2) into the units.
	// The machine clears dest's NaT bit as for a plain load.
	FlowCmpxchg
	// FlowCcvSet: mov.toccv; ar.ccv's taint becomes taint(src1).
	FlowCcvSet
	// FlowCcvGet: mov.fromccv; dest's taint becomes ar.ccv's.
	FlowCcvGet
	// FlowSetNat / FlowClrNat: setnat and clrnat set or clear dest's NaT
	// bit, value preserved. No data flows.
	FlowSetNat
	FlowClrNat
)

// NaT-fault sources: the source registers a non-speculative op faults
// on when they carry NaT (paper §2.2: improper uses of the token trap).
const (
	natFault1 uint8 = 1 << iota // Src1
	natFault2                   // Src2
)

// opInfo describes static properties of each opcode.
type opInfo struct {
	name     string
	hasDest  bool
	reads1   bool // reads Src1
	reads2   bool // reads Src2
	isImm    bool // uses Imm as an operand
	isMem    bool
	isBranch bool

	flow      Flow
	selfClear bool  // src1 == src2 clears the destination (§3.2)
	natFaults uint8 // natFault1 | natFault2
}

var opTable = [NumOpcodes]opInfo{
	OpInvalid:     {name: "invalid", flow: FlowNone},
	OpAdd:         {name: "add", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpSub:         {name: "sub", hasDest: true, reads1: true, reads2: true, flow: FlowUnion, selfClear: true},
	OpAnd:         {name: "and", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpAndcm:       {name: "andcm", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpOr:          {name: "or", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpXor:         {name: "xor", hasDest: true, reads1: true, reads2: true, flow: FlowUnion, selfClear: true},
	OpShl:         {name: "shl", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpShr:         {name: "shr", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpSar:         {name: "sar", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpMul:         {name: "mul", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpDiv:         {name: "div", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpRem:         {name: "rem", hasDest: true, reads1: true, reads2: true, flow: FlowUnion},
	OpAddi:        {name: "addi", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpAndi:        {name: "andi", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpOri:         {name: "ori", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpXori:        {name: "xori", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpShli:        {name: "shli", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpShri:        {name: "shri", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpSari:        {name: "sari", hasDest: true, reads1: true, isImm: true, flow: FlowCopy},
	OpMov:         {name: "mov", hasDest: true, reads1: true, flow: FlowCopy},
	OpMovl:        {name: "movl", hasDest: true, isImm: true, flow: FlowClear},
	OpCmp:         {name: "cmp", reads1: true, reads2: true, flow: FlowNone},
	OpCmpi:        {name: "cmpi", reads1: true, isImm: true, flow: FlowNone},
	OpCmpNa:       {name: "cmp.na", reads1: true, reads2: true, flow: FlowNone},
	OpCmpiNa:      {name: "cmpi.na", reads1: true, isImm: true, flow: FlowNone},
	OpTnat:        {name: "tnat", reads1: true, flow: FlowNone},
	OpLd:          {name: "ld", hasDest: true, reads1: true, isMem: true, flow: FlowLoad, natFaults: natFault1},
	OpLdS:         {name: "ld.s", hasDest: true, reads1: true, isMem: true, flow: FlowLoadSpec},
	OpLdFill:      {name: "ld8.fill", hasDest: true, reads1: true, isMem: true, isImm: true, flow: FlowFill, natFaults: natFault1},
	OpSt:          {name: "st", reads1: true, reads2: true, isMem: true, flow: FlowStore, natFaults: natFault1 | natFault2},
	OpStSpill:     {name: "st8.spill", reads1: true, reads2: true, isMem: true, isImm: true, flow: FlowStore, natFaults: natFault1},
	OpChkS:        {name: "chk.s", reads1: true, isBranch: true, flow: FlowNone},
	OpBr:          {name: "br", isBranch: true, flow: FlowNone},
	OpBrCall:      {name: "br.call", isBranch: true, flow: FlowNone},
	OpBrRet:       {name: "br.ret", isBranch: true, flow: FlowNone},
	OpBrInd:       {name: "br.ind", isBranch: true, flow: FlowNone},
	OpMovToBr:     {name: "mov.tobr", reads1: true, flow: FlowNone, natFaults: natFault1},
	OpMovFromBr:   {name: "mov.frombr", hasDest: true, flow: FlowClear},
	OpMovToUnat:   {name: "mov.tounat", reads1: true, flow: FlowNone, natFaults: natFault1},
	OpMovFromUnat: {name: "mov.fromunat", hasDest: true, flow: FlowClear},
	OpMovToCcv:    {name: "mov.toccv", reads1: true, flow: FlowCcvSet, natFaults: natFault1},
	OpMovFromCcv:  {name: "mov.fromccv", hasDest: true, flow: FlowCcvGet},
	OpCmpxchg:     {name: "cmpxchg", hasDest: true, reads1: true, reads2: true, isMem: true, flow: FlowCmpxchg, natFaults: natFault1 | natFault2},
	OpSetNat:      {name: "setnat", hasDest: true, flow: FlowSetNat},
	OpClrNat:      {name: "clrnat", hasDest: true, flow: FlowClrNat},
	OpSyscall:     {name: "syscall", isImm: true, flow: FlowNone},
	OpNop:         {name: "nop", flow: FlowNone},
}

// HasDest reports whether op writes a destination general register.
func (op Opcode) HasDest() bool { return opTable[op].hasDest }

// ReadsSrc1 reports whether op reads the Src1 general register.
func (op Opcode) ReadsSrc1() bool { return opTable[op].reads1 }

// ReadsSrc2 reports whether op reads the Src2 general register.
func (op Opcode) ReadsSrc2() bool { return opTable[op].reads2 }

// NaTFaults reports which sources the non-speculative op faults on
// when they carry NaT: the address of ld, ld8.fill and st8.spill, the
// address and data of st and cmpxchg, and the source of the moves into
// br, unat and ccv. Code after an unpredicated one of these sees those
// registers clean.
func (op Opcode) NaTFaults() (src1, src2 bool) {
	f := opTable[op].natFaults
	return f&natFault1 != 0, f&natFault2 != 0
}

// Flow returns the instruction's taint-transfer kind, resolving the
// xor/sub self-clearing idiom (src1 == src2) to FlowClear.
func (i *Instruction) Flow() Flow {
	info := &opTable[i.Op]
	if info.selfClear && i.Src1 == i.Src2 {
		return FlowClear
	}
	return info.flow
}

// AccessSize returns the number of bytes a memory instruction touches:
// Size, except for ld8.fill and st8.spill, which always move 8.
func (i *Instruction) AccessSize() int {
	if i.Op == OpLdFill || i.Op == OpStSpill {
		return 8
	}
	return int(i.Size)
}

// Name returns the mnemonic for the opcode.
func (op Opcode) Name() string {
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op > OpInvalid && op < NumOpcodes }

// IsMem reports whether op accesses data memory.
func (op Opcode) IsMem() bool { return opTable[op].isMem }

// IsBranch reports whether op can redirect control flow.
func (op Opcode) IsBranch() bool { return opTable[op].isBranch }

// IsLoad reports whether op is one of the load forms.
func (op Opcode) IsLoad() bool {
	return op == OpLd || op == OpLdS || op == OpLdFill
}

// IsStore reports whether op is one of the store forms.
func (op Opcode) IsStore() bool { return op == OpSt || op == OpStSpill }

// IsCompare reports whether op is one of the compare forms.
func (op Opcode) IsCompare() bool {
	return op == OpCmp || op == OpCmpi || op == OpCmpNa || op == OpCmpiNa
}

// condNames maps a relation to its mnemonic suffix.
var condNames = [...]string{
	CondEQ: "eq", CondNE: "ne", CondLT: "lt", CondLE: "le",
	CondGT: "gt", CondGE: "ge", CondLTU: "ltu", CondGEU: "geu",
	CondLEU: "leu", CondGTU: "gtu",
}

// String returns the relation's mnemonic suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// CondFromString parses a relation suffix; ok is false if unknown.
func CondFromString(s string) (Cond, bool) {
	for i, n := range condNames {
		if n == s {
			return Cond(i), true
		}
	}
	return 0, false
}

// Eval applies the relation to two values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondLTU:
		return uint64(a) < uint64(b)
	case CondGEU:
		return uint64(a) >= uint64(b)
	case CondLEU:
		return uint64(a) <= uint64(b)
	case CondGTU:
		return uint64(a) > uint64(b)
	}
	return false
}

// Negate returns the complementary relation.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	case CondLTU:
		return CondGEU
	case CondGEU:
		return CondLTU
	case CondLEU:
		return CondGTU
	case CondGTU:
		return CondLEU
	}
	return c
}

// target renders the branch destination of i for disassembly.
func (i *Instruction) target() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("@%d", i.Target)
}

// String disassembles the instruction into the textual syntax accepted by
// the assembler in internal/asm.
func (i *Instruction) String() string {
	qp := ""
	if i.Qp != 0 {
		qp = fmt.Sprintf("(p%d) ", i.Qp)
	}
	info := opTable[i.Op]
	switch i.Op {
	case OpMov:
		return fmt.Sprintf("%smov r%d = r%d", qp, i.Dest, i.Src1)
	case OpMovl:
		return fmt.Sprintf("%smovl r%d = %d", qp, i.Dest, i.Imm)
	case OpCmp, OpCmpNa:
		return fmt.Sprintf("%s%s.%s p%d, p%d = r%d, r%d", qp, info.name, i.Cond, i.P1, i.P2, i.Src1, i.Src2)
	case OpCmpi, OpCmpiNa:
		return fmt.Sprintf("%s%s.%s p%d, p%d = r%d, %d", qp, info.name, i.Cond, i.P1, i.P2, i.Src1, i.Imm)
	case OpTnat:
		return fmt.Sprintf("%stnat p%d, p%d = r%d", qp, i.P1, i.P2, i.Src1)
	case OpLd, OpLdS:
		suffix := ""
		if i.Op == OpLdS {
			suffix = ".s"
		}
		return fmt.Sprintf("%sld%d%s r%d = [r%d]", qp, i.Size, suffix, i.Dest, i.Src1)
	case OpLdFill:
		return fmt.Sprintf("%sld8.fill r%d = [r%d], %d", qp, i.Dest, i.Src1, i.Imm)
	case OpSt:
		return fmt.Sprintf("%sst%d [r%d] = r%d", qp, i.Size, i.Src1, i.Src2)
	case OpStSpill:
		return fmt.Sprintf("%sst8.spill [r%d] = r%d, %d", qp, i.Src1, i.Src2, i.Imm)
	case OpChkS:
		return fmt.Sprintf("%schk.s r%d, %s", qp, i.Src1, i.target())
	case OpBr:
		return fmt.Sprintf("%sbr %s", qp, i.target())
	case OpBrCall:
		return fmt.Sprintf("%sbr.call b%d = %s", qp, i.B, i.target())
	case OpBrRet:
		return fmt.Sprintf("%sbr.ret b%d", qp, i.B)
	case OpBrInd:
		return fmt.Sprintf("%sbr.ind b%d", qp, i.B)
	case OpMovToBr:
		return fmt.Sprintf("%smov b%d = r%d", qp, i.B, i.Src1)
	case OpMovFromBr:
		return fmt.Sprintf("%smov r%d = b%d", qp, i.Dest, i.B)
	case OpMovToUnat:
		return fmt.Sprintf("%smov unat = r%d", qp, i.Src1)
	case OpMovFromUnat:
		return fmt.Sprintf("%smov r%d = unat", qp, i.Dest)
	case OpMovToCcv:
		return fmt.Sprintf("%smov ccv = r%d", qp, i.Src1)
	case OpMovFromCcv:
		return fmt.Sprintf("%smov r%d = ccv", qp, i.Dest)
	case OpCmpxchg:
		return fmt.Sprintf("%scmpxchg%d r%d = [r%d], r%d", qp, i.Size, i.Dest, i.Src1, i.Src2)
	case OpSetNat:
		return fmt.Sprintf("%ssetnat r%d", qp, i.Dest)
	case OpClrNat:
		return fmt.Sprintf("%sclrnat r%d", qp, i.Dest)
	case OpSyscall:
		return fmt.Sprintf("%ssyscall %d", qp, i.Imm)
	case OpNop:
		return qp + "nop"
	}
	if info.hasDest && info.reads1 && info.reads2 {
		return fmt.Sprintf("%s%s r%d = r%d, r%d", qp, info.name, i.Dest, i.Src1, i.Src2)
	}
	if info.hasDest && info.reads1 && info.isImm {
		return fmt.Sprintf("%s%s r%d = r%d, %d", qp, info.name, i.Dest, i.Src1, i.Imm)
	}
	return qp + info.name
}

// Validate checks structural well-formedness (register ranges, sizes).
func (i *Instruction) Validate() error {
	if !i.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	if i.Qp >= NumPR || i.P1 >= NumPR || i.P2 >= NumPR {
		return fmt.Errorf("isa: %s: predicate register out of range", i.Op.Name())
	}
	if int(i.Dest) >= NumGR || int(i.Src1) >= NumGR || int(i.Src2) >= NumGR {
		return fmt.Errorf("isa: %s: general register out of range", i.Op.Name())
	}
	if i.B >= NumBR {
		return fmt.Errorf("isa: %s: branch register out of range", i.Op.Name())
	}
	if i.Op.IsMem() {
		switch i.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: %s: bad access size %d", i.Op.Name(), i.Size)
		}
		if (i.Op == OpLdFill || i.Op == OpStSpill) && i.Size != 8 {
			return fmt.Errorf("isa: %s: spill/fill must be 8 bytes", i.Op.Name())
		}
		if i.Op == OpLdFill || i.Op == OpStSpill {
			if i.Imm < 0 || i.Imm >= 64 {
				return fmt.Errorf("isa: %s: UNAT bit %d out of range", i.Op.Name(), i.Imm)
			}
		}
	}
	if opTable[i.Op].hasDest && i.Dest == RegZero &&
		i.Op != OpNop {
		return fmt.Errorf("isa: %s: r0 is read-only", i.Op.Name())
	}
	return nil
}
