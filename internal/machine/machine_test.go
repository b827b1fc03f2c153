package machine

import (
	"testing"
	"testing/quick"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/mem"
)

// run assembles src, loads its data image, applies setup, and executes
// until halt or trap.
func run(t *testing.T, src string, feat Features, setup func(*Machine)) (*Machine, *Trap) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	m.MapRegion(0, 0)
	m.MapRegion(1, 0)
	m.MapRegion(2, 0)
	if f := m.WriteBytes(p.DataBase, p.Data); f != nil {
		t.Fatalf("loading data: %v", f)
	}
	mach := New(p, m)
	mach.Feat = feat
	mach.OS = exitOnlyOS{}
	mach.GR[isa.RegSP] = int64(mem.Addr(2, 0x10000))
	if setup != nil {
		setup(mach)
	}
	trap := mach.Run()
	return mach, trap
}

// exitOnlyOS handles just the exit syscall; tests that need more install
// their own handler.
type exitOnlyOS struct{}

func (exitOnlyOS) Syscall(m *Machine, num int64) (uint64, *Trap) {
	if num == isa.SysExit {
		m.Halt(m.GR[isa.RegArg0])
		return 0, nil
	}
	return 0, &Trap{Kind: TrapHostError, PC: m.PC, Ins: "syscall"}
}

func TestArithmeticAndExit(t *testing.T) {
	m, trap := run(t, `
	movl r1 = 100
	movl r2 = 0
again:
	add r2 = r2, r1
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br again
	mov r32 = r2
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 5050 {
		t.Errorf("sum = %d, want 5050", m.ExitStatus)
	}
	if m.Cycles == 0 || m.Retired == 0 {
		t.Error("no accounting recorded")
	}
}

func TestNaTPropagationThroughALU(t *testing.T) {
	// A NaT'd register contaminates every dependent computation.
	m, trap := run(t, `
	movl r1 = 7
	add r2 = r1, r127    ; r127 NaT'd by setup
	shli r3 = r2, 4
	and r4 = r3, r1
	mov r5 = r4
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) {
		m.NaT[127] = true
	})
	if trap != nil {
		t.Fatal(trap)
	}
	for _, r := range []int{2, 3, 4, 5} {
		if !m.NaT[r] {
			t.Errorf("r%d lost the NaT token", r)
		}
	}
	if m.NaT[1] {
		t.Error("r1 gained a NaT token")
	}
}

func TestXorSubClearIdioms(t *testing.T) {
	// xor r,a,a and sub r,a,a clear the token (paper §3.2).
	m, trap := run(t, `
	xor r2 = r127, r127
	sub r3 = r127, r127
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) {
		m.NaT[127] = true
		m.GR[127] = 99
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if m.NaT[2] || m.NaT[3] || m.GR[2] != 0 || m.GR[3] != 0 {
		t.Errorf("clear idioms failed: r2=%d nat=%v r3=%d nat=%v", m.GR[2], m.NaT[2], m.GR[3], m.NaT[3])
	}
}

func TestNaTSensitiveCompareClearsBothPredicates(t *testing.T) {
	m, trap := run(t, `
	cmpi.eq p6, p7 = r127, 0
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) {
		m.NaT[127] = true
		m.PR[6] = true
		m.PR[7] = true
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if m.PR[6] || m.PR[7] {
		t.Error("NaT-sensitive compare left a predicate set")
	}
}

func TestNaTAwareCompare(t *testing.T) {
	src := `
	cmpi.na.eq p6, p7 = r127, 5
	mov r32 = r0
	syscall 1
`
	// Without the feature: illegal instruction.
	_, trap := run(t, src, Features{}, nil)
	if trap == nil || trap.Kind != TrapIllegal {
		t.Fatalf("cmp.na without feature: trap = %v", trap)
	}
	// With it: compares values, ignoring NaT.
	m, trap := run(t, src, Features{NaTAwareCmp: true}, func(m *Machine) {
		m.NaT[127] = true
		m.GR[127] = 5
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if !m.PR[6] || m.PR[7] {
		t.Error("cmp.na did not evaluate the values")
	}
}

func TestSpeculativeLoadDefersFault(t *testing.T) {
	// ld8.s from an unmapped address must set NaT instead of trapping —
	// this is how SHIFT manufactures its taint-source register (§4.3).
	m, trap := run(t, `
	movl r1 = 12345        ; region 0 offset: mapped? use a wild address
	movl r1 = 0x3000000000000000
	ld8.s r2 = [r1]
	mov r32 = r0
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if !m.NaT[2] || m.GR[2] != 0 {
		t.Errorf("ld8.s: r2 = %d nat=%v, want 0 with NaT", m.GR[2], m.NaT[2])
	}
}

func TestSpeculativeLoadFromNaTAddress(t *testing.T) {
	m, trap := run(t, `
	ld8.s r2 = [r127]
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) { m.NaT[127] = true })
	if trap != nil {
		t.Fatal(trap)
	}
	if !m.NaT[2] {
		t.Error("speculative load from NaT address did not defer")
	}
}

func TestPlainLoadStripsNaT(t *testing.T) {
	// SHIFT clears a token by spilling and reloading with a plain ld.
	m, trap := run(t, `
	.data
scratch: .space 8
	.text
	movl r1 = scratch
	st8.spill [r1] = r127, 3
	ld8 r2 = [r1]
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) {
		m.NaT[127] = true
		m.GR[127] = 42
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if m.NaT[2] {
		t.Error("plain load preserved NaT")
	}
	if m.GR[2] != 42 {
		t.Errorf("value lost through spill: %d", m.GR[2])
	}
	if m.UNAT>>3&1 != 1 {
		t.Error("spill did not record the NaT bit in UNAT")
	}
}

func TestSpillFillRoundTripsNaT(t *testing.T) {
	m, trap := run(t, `
	.data
scratch: .space 16
	.text
	movl r1 = scratch
	st8.spill [r1] = r127, 0
	ld8.fill r2 = [r1], 0
	st8.spill [r1] = r3, 1     ; r3 clean
	ld8.fill r4 = [r1], 1
	mov r32 = r0
	syscall 1
`, Features{}, func(m *Machine) {
		m.NaT[127] = true
		m.GR[3] = 7
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if !m.NaT[2] {
		t.Error("fill did not restore NaT")
	}
	if m.NaT[4] || m.GR[4] != 7 {
		t.Errorf("clean spill/fill corrupted r4: %d nat=%v", m.GR[4], m.NaT[4])
	}
}

func TestChkSBranchesOnNaT(t *testing.T) {
	m, trap := run(t, `
	chk.s r127, recover
	movl r2 = 1          ; skipped when NaT
	br done
recover:
	movl r2 = 2
done:
	mov r32 = r2
	syscall 1
`, Features{}, func(m *Machine) { m.NaT[127] = true })
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 2 {
		t.Errorf("chk.s did not take recovery: exit %d", m.ExitStatus)
	}
	// Without NaT it falls through.
	m, trap = run(t, `
	chk.s r1, recover
	movl r2 = 1
	br done
recover:
	movl r2 = 2
done:
	mov r32 = r2
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 1 {
		t.Errorf("chk.s took recovery on clean register: exit %d", m.ExitStatus)
	}
}

func TestNaTConsumptionTraps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind TrapKind
	}{
		{"load address", "ld8 r2 = [r127]\nsyscall 1\n", TrapNaTLoadAddr},
		{"store address", "st8 [r127] = r1\nsyscall 1\n", TrapNaTStoreAddr},
		{"store data", "movl r1 = 0x2000000000010000\nst8 [r1] = r127\nsyscall 1\n", TrapNaTStoreData},
		{"branch register", "mov b6 = r127\nsyscall 1\n", TrapNaTBranch},
		{"spill to NaT address", "st8.spill [r127] = r1, 0\nsyscall 1\n", TrapNaTStoreAddr},
		{"fill from NaT address", "ld8.fill r2 = [r127], 0\nsyscall 1\n", TrapNaTLoadAddr},
	}
	for _, c := range cases {
		_, trap := run(t, c.src, Features{}, func(m *Machine) { m.NaT[127] = true })
		if trap == nil || trap.Kind != c.kind {
			t.Errorf("%s: trap = %v, want %v", c.name, trap, c.kind)
		}
		if trap != nil && !trap.Kind.IsNaTConsumption() {
			t.Errorf("%s: %v not classified as NaT consumption", c.name, trap.Kind)
		}
	}
}

func TestSetClrNaTFeatureGate(t *testing.T) {
	_, trap := run(t, "setnat r2\nsyscall 1\n", Features{}, nil)
	if trap == nil || trap.Kind != TrapIllegal {
		t.Fatalf("setnat without feature: %v", trap)
	}
	m, trap := run(t, `
	movl r2 = 5
	setnat r2
	mov r3 = r2
	clrnat r2
	mov r32 = r2
	syscall 1
`, Features{SetClrNaT: true}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if !m.NaT[3] {
		t.Error("setnat token did not propagate")
	}
	if m.NaT[2] {
		t.Error("clrnat did not clear")
	}
	if m.ExitStatus != 5 {
		t.Errorf("setnat destroyed the value: %d", m.ExitStatus)
	}
}

func TestPredication(t *testing.T) {
	m, trap := run(t, `
	movl r1 = 1
	movl r2 = 2
	cmp.lt p6, p7 = r1, r2
	(p6) movl r3 = 10
	(p7) movl r3 = 20
	mov r32 = r3
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 10 {
		t.Errorf("predication chose %d, want 10", m.ExitStatus)
	}
}

func TestPredicatedOffCostsFetchOnly(t *testing.T) {
	m, trap := run(t, `
	cmpi.eq p6, p7 = r1, 1   ; false: r1 is 0
	(p6) movl r2 = 7
	mov r32 = r0
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.GR[2] != 0 {
		t.Error("predicated-off instruction executed")
	}
}

func TestCallReturn(t *testing.T) {
	m, trap := run(t, `
	.entry main
double:
	add r8 = r32, r32
	br.ret b0
main:
	movl r32 = 21
	br.call b0 = double
	mov r32 = r8
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 42 {
		t.Errorf("call/return = %d, want 42", m.ExitStatus)
	}
}

func TestIndirectBranch(t *testing.T) {
	p, err := asm.Assemble("main:\nbr.ind b6\nmovl r32 = 1\nsyscall 1\nok:\nmovl r32 = 9\nsyscall 1\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New()
	mm.MapRegion(2, 0)
	mach := New(p, mm)
	mach.OS = exitOnlyOS{}
	mach.BR[6] = int64(p.Symbols["ok"])
	if trap := mach.Run(); trap != nil {
		t.Fatal(trap)
	}
	if mach.ExitStatus != 9 {
		t.Errorf("br.ind landed wrong: %d", mach.ExitStatus)
	}
}

func TestDivZeroTrap(t *testing.T) {
	_, trap := run(t, "movl r1 = 1\ndiv r2 = r1, r0\nsyscall 1\n", Features{}, nil)
	if trap == nil || trap.Kind != TrapDivZero {
		t.Fatalf("div by zero: %v", trap)
	}
}

func TestMemoryFaultTrap(t *testing.T) {
	_, trap := run(t, "movl r1 = 0x7000000000000000\nld8 r2 = [r1]\nsyscall 1\n", Features{}, nil)
	if trap == nil || trap.Kind != TrapMemFault {
		t.Fatalf("unmapped load: %v", trap)
	}
}

func TestBudgetGuard(t *testing.T) {
	p, err := asm.Assemble("loop:\nbr loop\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, mem.New())
	m.Budget = 1000
	trap := m.Run()
	if trap == nil || trap.Kind != TrapBudget {
		t.Fatalf("budget guard: %v", trap)
	}
}

func TestR0Invariants(t *testing.T) {
	// r0 stays zero and never becomes NaT even under setnat.
	m, trap := run(t, `
	mov r32 = r0
	syscall 1
`, Features{SetClrNaT: true}, func(m *Machine) {
		// Direct attempts via setGR are blocked; check through state.
	})
	if trap != nil {
		t.Fatal(trap)
	}
	if m.GR[0] != 0 || m.NaT[0] {
		t.Error("r0 corrupted")
	}
}

// TestNaTPropagationProperty: for any chain of clean ALU ops applied to a
// register pair where exactly one side is tainted, the result is tainted;
// if neither is, the result is clean.
func TestNaTPropagationProperty(t *testing.T) {
	f := func(a, b int64, taintA, taintB bool, opIdx uint8) bool {
		ops := []string{"add", "sub", "and", "or", "xor", "shl", "mul"}
		op := ops[opIdx%uint8(len(ops))]
		src := "\t" + op + " r3 = r1, r2\n\tmov r32 = r0\n\tsyscall 1\n"
		p, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			return false
		}
		m := New(p, mem.New())
		m.OS = exitOnlyOS{}
		m.GR[1], m.GR[2] = a, b
		m.NaT[1], m.NaT[2] = taintA, taintB
		if trap := m.Run(); trap != nil {
			return false
		}
		return m.NaT[3] == (taintA || taintB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostClassesAccumulate(t *testing.T) {
	p, err := asm.Assemble("movl r1 = 1\nadd r2 = r1, r1\nsyscall 1\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Text[1].Class = isa.ClassLoadCompute
	m := New(p, mem.New())
	m.OS = exitOnlyOS{}
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	if m.CyclesByClass[isa.ClassLoadCompute] == 0 {
		t.Error("classified cycles not recorded")
	}
	var sum uint64
	for _, c := range m.CyclesByClass {
		sum += c
	}
	if sum != m.Cycles {
		t.Errorf("class cycles %d != total %d", sum, m.Cycles)
	}
}

func TestResetRewindsExecutionState(t *testing.T) {
	p, err := asm.Assemble("movl r1 = 1\nmov r32 = r1\nsyscall 1\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, mem.New())
	m.OS = exitOnlyOS{}
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	cycles := m.Cycles
	m.Reset()
	if m.Cycles != 0 || m.Halted || m.PC != p.Entry {
		t.Error("reset incomplete")
	}
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	if m.Cycles != cycles {
		t.Errorf("non-deterministic rerun: %d vs %d", m.Cycles, cycles)
	}
}

func TestProfileCountsAndHotspots(t *testing.T) {
	p, err := asm.Assemble(`
	.entry main
main:
	movl r1 = 50
loop:
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br loop
	mov r32 = r0
	syscall 1
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, mem.New())
	m.OS = exitOnlyOS{}
	m.EnableProfile()
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	hs := m.Hotspots(3)
	if len(hs) != 3 {
		t.Fatalf("hotspots: %d", len(hs))
	}
	// The loop body retires 50 times each.
	if hs[0].Count != 50 {
		t.Errorf("hottest count = %d, want 50", hs[0].Count)
	}
	if hs[0].Symbol != "loop" {
		t.Errorf("hottest symbol = %q", hs[0].Symbol)
	}
	var total uint64
	for _, c := range m.profile {
		total += c
	}
	if total != m.Retired {
		t.Errorf("profile total %d != retired %d", total, m.Retired)
	}
	fp := m.FunctionProfile()
	if len(fp) == 0 || fp[0].Count == 0 {
		t.Error("function profile empty")
	}
	// Without EnableProfile, the helpers return nil.
	m2 := New(p, mem.New())
	if m2.Hotspots(3) != nil || m2.FunctionProfile() != nil {
		t.Error("profile helpers active without EnableProfile")
	}
}

func TestCmpxchgSemantics(t *testing.T) {
	m, trap := run(t, `
	.data
w: .word8 10
	.text
	movl r1 = w
	movl r2 = 10        ; expected value
	movl r3 = 77        ; replacement
	mov ccv = r2
	cmpxchg8 r4 = [r1], r3     ; matches: writes 77, r4 = 10
	mov ccv = r2
	cmpxchg8 r5 = [r1], r2     ; stale ccv: no write, r5 = 77
	ld8 r6 = [r1]
	mov r32 = r0
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.GR[4] != 10 {
		t.Errorf("first cmpxchg old = %d, want 10", m.GR[4])
	}
	if m.GR[5] != 77 {
		t.Errorf("second cmpxchg old = %d, want 77", m.GR[5])
	}
	if m.GR[6] != 77 {
		t.Errorf("memory = %d, want 77 (failed CAS must not write)", m.GR[6])
	}
}

func TestCmpxchgNaTConsumption(t *testing.T) {
	_, trap := run(t, "cmpxchg8 r2 = [r127], r1\nsyscall 1\n",
		Features{}, func(m *Machine) { m.NaT[127] = true })
	if trap == nil || trap.Kind != TrapNaTStoreAddr {
		t.Fatalf("NaT address: %v", trap)
	}
	_, trap = run(t, "movl r1 = 0x2000000000010000\ncmpxchg8 r2 = [r1], r127\nsyscall 1\n",
		Features{}, func(m *Machine) { m.NaT[127] = true })
	if trap == nil || trap.Kind != TrapNaTStoreData {
		t.Fatalf("NaT data: %v", trap)
	}
}

func TestCcvMoves(t *testing.T) {
	m, trap := run(t, `
	movl r1 = 123
	mov ccv = r1
	mov r2 = ccv
	mov r32 = r2
	syscall 1
`, Features{}, nil)
	if trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 123 {
		t.Errorf("ccv round trip = %d", m.ExitStatus)
	}
	// Moving a NaT'd value into ar.ccv faults, like any special register.
	_, trap = run(t, "mov ccv = r127\nsyscall 1\n",
		Features{}, func(m *Machine) { m.NaT[127] = true })
	if trap == nil || !trap.Kind.IsNaTConsumption() {
		t.Fatalf("NaT into ccv: %v", trap)
	}
}
