package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{CondEQ, 3, 3, true},
		{CondEQ, 3, 4, false},
		{CondNE, 3, 4, true},
		{CondLT, -1, 0, true},
		{CondLE, 5, 5, true},
		{CondGT, 6, 5, true},
		{CondGE, 5, 5, true},
		{CondLTU, -1, 0, false}, // -1 is max uint64
		{CondLTU, 1, 2, true},
		{CondGEU, -1, 0, true},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%s.Eval(%d, %d) = %v, want %v", c.c, c.a, c.b, got, c.want)
		}
	}
}

func TestCondNegateIsComplement(t *testing.T) {
	f := func(ci uint8, a, b int64) bool {
		c := Cond(ci % 8)
		return c.Negate().Eval(a, b) == !c.Eval(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondNegateInvolution(t *testing.T) {
	for c := CondEQ; c <= CondGEU; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("negate(negate(%s)) != %s", c, c)
		}
	}
}

func TestCondStringRoundTrip(t *testing.T) {
	for c := CondEQ; c <= CondGEU; c++ {
		got, ok := CondFromString(c.String())
		if !ok || got != c {
			t.Errorf("CondFromString(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := CondFromString("bogus"); ok {
		t.Error("CondFromString accepted bogus relation")
	}
}

func TestOpcodeClassification(t *testing.T) {
	if !OpLd.IsLoad() || !OpLdS.IsLoad() || !OpLdFill.IsLoad() {
		t.Error("load forms not classified as loads")
	}
	if !OpSt.IsStore() || !OpStSpill.IsStore() {
		t.Error("store forms not classified as stores")
	}
	if OpAdd.IsMem() || !OpLd.IsMem() || !OpStSpill.IsMem() {
		t.Error("IsMem wrong")
	}
	if !OpBr.IsBranch() || !OpChkS.IsBranch() || OpMov.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !OpCmp.IsCompare() || !OpCmpiNa.IsCompare() || OpTnat.IsCompare() {
		t.Error("IsCompare wrong")
	}
	if OpInvalid.Valid() || NumOpcodes.Valid() || !OpNop.Valid() {
		t.Error("Valid wrong")
	}
}

func TestInstructionValidate(t *testing.T) {
	good := Instruction{Op: OpAdd, Dest: 1, Src1: 2, Src2: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid add rejected: %v", err)
	}
	bad := []Instruction{
		{Op: OpInvalid},
		{Op: OpAdd, Dest: 0, Src1: 1, Src2: 2},              // r0 read-only
		{Op: OpLd, Dest: 1, Src1: 2, Size: 3},               // bad size
		{Op: OpStSpill, Src1: 1, Src2: 2, Size: 4},          // spill must be 8
		{Op: OpStSpill, Src1: 1, Src2: 2, Size: 8, Imm: 64}, // UNAT bit range
	}
	for i, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("case %d: invalid instruction accepted: %s", i, ins.String())
		}
	}
}

func TestProgramLink(t *testing.T) {
	p := &Program{
		Text: []Instruction{
			{Op: OpBr, Label: "end"},
			{Op: OpNop},
			{Op: OpNop, Sym: "end"},
		},
		Symbols: map[string]int{"end": 2},
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if p.Text[0].Target != 2 {
		t.Errorf("link target = %d, want 2", p.Text[0].Target)
	}
	p.Text = append(p.Text, Instruction{Op: OpBr, Label: "missing"})
	if err := p.Link(); err == nil {
		t.Error("link accepted undefined label")
	}
}

func TestProgramValidateBranchRange(t *testing.T) {
	p := &Program{Text: []Instruction{{Op: OpBr, Target: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}
}

func TestCountByClass(t *testing.T) {
	p := &Program{Text: []Instruction{
		{Op: OpAdd, Dest: 1, Src1: 1, Src2: 1},
		{Op: OpAdd, Dest: 1, Src1: 1, Src2: 1, Class: ClassLoadCompute},
		{Op: OpLd, Dest: 1, Src1: 1, Size: 8, Class: ClassLoadTagMem},
	}}
	counts := p.CountByClass()
	if counts[ClassOrig] != 1 || counts[ClassLoadCompute] != 1 || counts[ClassLoadTagMem] != 1 {
		t.Errorf("CountByClass = %v", counts)
	}
}

func TestDisassembleMentionsSymbols(t *testing.T) {
	p := &Program{
		Text:    []Instruction{{Op: OpNop}, {Op: OpBrRet, B: 0}},
		Symbols: map[string]int{"main": 0},
	}
	dis := p.Disassemble()
	if !strings.Contains(dis, "main:") || !strings.Contains(dis, "br.ret b0") {
		t.Errorf("disassembly missing pieces:\n%s", dis)
	}
}

// TestStringStable checks that disassembly is deterministic and non-empty
// for a sample of random (structurally valid) instructions.
func TestStringStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ins := RandomInstruction(rng)
		s1, s2 := ins.String(), ins.String()
		if s1 == "" || s1 != s2 {
			t.Fatalf("unstable or empty disassembly: %q vs %q", s1, s2)
		}
	}
}

// TestFlowTableComplete pins the taint-transfer columns of opTable:
// every opcode names its kind explicitly, exactly the opcodes that
// write a destination register have a register-writing kind, only
// xor and sub carry the self-clearing idiom, and a NaT-fault source is
// always a source the opcode reads.
func TestFlowTableComplete(t *testing.T) {
	writesDest := map[Flow]bool{
		FlowUnion: true, FlowCopy: true, FlowClear: true, FlowLoad: true,
		FlowLoadSpec: true, FlowFill: true, FlowCmpxchg: true,
		FlowCcvGet: true, FlowSetNat: true, FlowClrNat: true,
	}
	for op := OpInvalid; op < NumOpcodes; op++ {
		info := opTable[op]
		if info.flow == 0 {
			t.Errorf("%s: no transfer kind in opTable", op.Name())
			continue
		}
		if info.flow > FlowClrNat {
			t.Errorf("%s: transfer kind %d out of range", op.Name(), info.flow)
		}
		if op.HasDest() != writesDest[info.flow] {
			t.Errorf("%s: hasDest=%v but kind %d writes a register: %v",
				op.Name(), op.HasDest(), info.flow, writesDest[info.flow])
		}
		if info.selfClear != (op == OpXor || op == OpSub) {
			t.Errorf("%s: selfClear=%v", op.Name(), info.selfClear)
		}
		f1, f2 := op.NaTFaults()
		if (f1 && !op.ReadsSrc1()) || (f2 && !op.ReadsSrc2()) {
			t.Errorf("%s: faults on a source it does not read", op.Name())
		}
	}
}

// TestFlowSelfIdiom checks that Instruction.Flow resolves the xor/sub
// self-clearing idiom, and only that.
func TestFlowSelfIdiom(t *testing.T) {
	for op := OpInvalid + 1; op < NumOpcodes; op++ {
		same := Instruction{Op: op, Dest: 3, Src1: 5, Src2: 5}
		diff := Instruction{Op: op, Dest: 3, Src1: 5, Src2: 6}
		want := opTable[op].flow
		if op == OpXor || op == OpSub {
			want = FlowClear
		}
		if got := same.Flow(); got != want {
			t.Errorf("%s r3 = r5, r5: Flow() = %d, want %d", op.Name(), got, want)
		}
		if got := diff.Flow(); got != opTable[op].flow {
			t.Errorf("%s r3 = r5, r6: Flow() = %d, want %d", op.Name(), got, opTable[op].flow)
		}
	}
}
