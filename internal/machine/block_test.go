package machine

import (
	"fmt"
	"slices"
	"testing"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/mem"
)

// newTestMachine assembles src and prepares a machine without running it.
func newTestMachine(t *testing.T, src string, engine Engine, setup func(*Machine)) *Machine {
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
	mach.Engine = engine
	mach.OS = exitOnlyOS{}
	mach.GR[isa.RegSP] = int64(mem.Addr(2, 0x10000))
	if setup != nil {
		setup(mach)
	}
	return mach
}

// compareMachines asserts every architectural observable agrees between
// the interpreter and block engine runs of the same program.
func compareMachines(t *testing.T, label string, ref, got *Machine, refTrap, gotTrap *Trap) {
	t.Helper()
	if (refTrap == nil) != (gotTrap == nil) {
		t.Fatalf("%s: trap mismatch: interp=%v block=%v", label, refTrap, gotTrap)
	}
	if refTrap != nil {
		if refTrap.Kind != gotTrap.Kind || refTrap.PC != gotTrap.PC ||
			refTrap.Addr != gotTrap.Addr || refTrap.Reg != gotTrap.Reg ||
			refTrap.Ins != gotTrap.Ins {
			t.Fatalf("%s: trap detail mismatch:\n interp: %+v\n block:  %+v", label, refTrap, gotTrap)
		}
	}
	if ref.GR != got.GR {
		t.Errorf("%s: GR mismatch", label)
	}
	if ref.NaT != got.NaT {
		t.Errorf("%s: NaT mismatch", label)
	}
	if ref.PR != got.PR {
		t.Errorf("%s: PR mismatch", label)
	}
	if ref.BR != got.BR {
		t.Errorf("%s: BR mismatch", label)
	}
	if ref.UNAT != got.UNAT {
		t.Errorf("%s: UNAT mismatch: interp=%#x block=%#x", label, ref.UNAT, got.UNAT)
	}
	if ref.CCV != got.CCV {
		t.Errorf("%s: CCV mismatch", label)
	}
	if ref.PC != got.PC {
		t.Errorf("%s: PC mismatch: interp=%d block=%d", label, ref.PC, got.PC)
	}
	if ref.Cycles != got.Cycles {
		t.Errorf("%s: Cycles mismatch: interp=%d block=%d", label, ref.Cycles, got.Cycles)
	}
	if ref.CyclesByClass != got.CyclesByClass {
		t.Errorf("%s: CyclesByClass mismatch:\n interp: %v\n block:  %v", label, ref.CyclesByClass, got.CyclesByClass)
	}
	if ref.Retired != got.Retired {
		t.Errorf("%s: Retired mismatch: interp=%d block=%d", label, ref.Retired, got.Retired)
	}
	if ref.Halted != got.Halted || ref.ExitStatus != got.ExitStatus {
		t.Errorf("%s: exit mismatch: interp=(%v,%d) block=(%v,%d)",
			label, ref.Halted, ref.ExitStatus, got.Halted, got.ExitStatus)
	}
}

// parityPrograms is the differential corpus: every control shape and
// trap path the engines must agree on bit-for-bit.
var parityPrograms = []struct {
	name  string
	src   string
	feat  Features
	setup func(*Machine)
}{
	{name: "arith loop", src: `
	movl r10 = 2305843009213693952
	movl r1 = 200
	movl r2 = 0
loop:
	add r2 = r2, r1
	xor r3 = r2, r1
	shli r4 = r3, 3
	st8 [r10] = r4
	ld8 r5 = [r10]
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br loop
	mov r32 = r2
	syscall 1
`},
	{name: "self-clear idioms", src: `
	xor r2 = r127, r127
	sub r3 = r127, r127
	mov r32 = r2
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "qp squash", src: `
	cmpi.eq p6, p7 = r0, 1
	(p6) movl r2 = 11
	(p7) movl r2 = 22
	(p6) st8 [r127] = r127
	mov r32 = r2
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "nat-sensitive compare", src: `
	cmpi.eq p6, p7 = r127, 0
	(p6) movl r2 = 1
	(p7) movl r3 = 2
	mov r32 = r0
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "chk.s recovery", src: `
	chk.s r127, recover
	movl r32 = 1
	syscall 1
recover:
	movl r32 = 9
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "spec load defer", src: `
	movl r1 = 6341068275337658368   ; region 5: unmapped
	ld8.s r2 = [r1]
	tnat p6, p7 = r2
	(p6) movl r32 = 5
	(p7) movl r32 = 0
	syscall 1
`},
	{name: "spill fill", src: `
	movl r1 = 2305843009213693952
	st8.spill [r1] = r127, 3
	ld8.fill r2 = [r1], 3
	mov r32 = r0
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "call ret", src: `
main:
	movl r33 = 7
	br.call b0 = double
	mov r32 = r33
	syscall 1
double:
	add r33 = r33, r33
	br.ret b0
`},
	{name: "div zero trap", src: `
	movl r1 = 5
	div r2 = r1, r0
	syscall 1
`},
	{name: "nat store trap", src: `
	movl r1 = 2305843009213693952
	st8 [r1] = r127
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "nat load addr trap", src: `
	ld8 r2 = [r127]
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "nat branch trap", src: `
	mov b6 = r127
	syscall 1
`, setup: func(m *Machine) { m.NaT[127] = true }},
	{name: "illegal setnat", src: `
	setnat r2
	syscall 1
`},
	{name: "bad pc", src: `
	movl r1 = 9999
	mov b6 = r1
	br.ind b6
	syscall 1
`},
	{name: "mem fault", src: `
	movl r1 = 6341068275337658368   ; region 5: unmapped
	ld8 r2 = [r1]
	syscall 1
`},
	{name: "unaligned store", src: `
	movl r1 = 2305843009213693955
	st8 [r1] = r0
	syscall 1
`},
	{name: "cmpxchg", src: `
	movl r1 = 2305843009213693952
	movl r2 = 42
	st8 [r1] = r0
	mov ccv = r0
	cmpxchg8 r3 = [r1], r2
	ld8 r4 = [r1]
	mov r32 = r4
	syscall 1
`},
	{name: "enhancement setnat", src: `
	setnat r2
	tnat p6, p7 = r2
	clrnat r2
	(p6) movl r32 = 1
	syscall 1
`, feat: Features{SetClrNaT: true}},
	{name: "widths", src: `
	movl r1 = 2305843009213693952
	movl r2 = -1
	st1 [r1] = r2
	st2 [r1] = r2
	st4 [r1] = r2
	ld1 r3 = [r1]
	ld2 r4 = [r1]
	ld4 r5 = [r1]
	mov r32 = r3
	syscall 1
`},
}

// TestEngineParity runs the corpus under both engines and requires
// bit-identical architectural state, traps included.
func TestEngineParity(t *testing.T) {
	for _, tc := range parityPrograms {
		t.Run(tc.name, func(t *testing.T) {
			ref := newTestMachine(t, tc.src, EngineInterp, tc.setup)
			ref.Feat = tc.feat
			refTrap := ref.Run()
			got := newTestMachine(t, tc.src, EngineBlock, tc.setup)
			got.Feat = tc.feat
			gotTrap := got.Run()
			compareMachines(t, tc.name, ref, got, refTrap, gotTrap)
		})
	}
}

// TestEngineParityBudgetSweep expires the retirement budget at every
// possible instruction of a looping program and requires the engines to
// agree on the trap point and the machine state at it. This covers the
// block engine's mid-block delegation to the interpreter.
func TestEngineParityBudgetSweep(t *testing.T) {
	src := parityPrograms[0].src
	for budget := uint64(1); budget <= 40; budget++ {
		ref := newTestMachine(t, src, EngineInterp, nil)
		ref.Budget = budget
		refTrap := ref.Run()
		got := newTestMachine(t, src, EngineBlock, nil)
		got.Budget = budget
		gotTrap := got.Run()
		compareMachines(t, fmt.Sprintf("budget=%d", budget), ref, got, refTrap, gotTrap)
	}
}

// TestEngineParitySlices drives both engines through the scheduler's
// slice entry point with a tiny quantum, checking state equality after
// every slice — the quantum-expiry boundaries themselves must match
// (tag-coherent preemption picks the same instruction on both engines).
func TestEngineParitySlices(t *testing.T) {
	for _, unsafePre := range []bool{false, true} {
		src := parityPrograms[0].src
		ref := newTestMachine(t, src, EngineInterp, nil)
		got := newTestMachine(t, src, EngineBlock, nil)
		ref.UnsafePreempt = unsafePre
		got.UnsafePreempt = unsafePre
		const quantum = 7
		for step := 0; !ref.Halted; step++ {
			refTrap := ref.slice(ref.Prog.Text, ref.resolveBudget(), ref.Cycles+quantum)
			gotTrap := got.slice(got.Prog.Text, got.resolveBudget(), got.Cycles+quantum)
			compareMachines(t, fmt.Sprintf("unsafe=%v slice=%d", unsafePre, step), ref, got, refTrap, gotTrap)
			if step > 10000 {
				t.Fatal("runaway")
			}
		}
		if !got.Halted {
			t.Fatal("block engine did not halt with interp")
		}
	}
}

// TestEngineParityHooked pins slice routing: a block-engine machine with
// a hook or profile attached must run on the interpreter (no translation
// cache attached, no block traffic) and hand the hook the interpreter's
// retirement stream, while an unhooked block-engine run must still
// attach a cache and execute blocks.
func TestEngineParityHooked(t *testing.T) {
	noBlocks := func(t *testing.T, label string, m *Machine) {
		t.Helper()
		if m.Translations() != nil || m.BlockStats.Hits+m.BlockStats.Misses != 0 {
			t.Errorf("%s block-engine run used the block engine: cache=%v hits=%d misses=%d",
				label, m.Translations() != nil, m.BlockStats.Hits, m.BlockStats.Misses)
		}
	}
	for _, tc := range parityPrograms {
		t.Run(tc.name, func(t *testing.T) {
			var refSeen, gotSeen []int
			ref := newTestMachine(t, tc.src, EngineInterp, tc.setup)
			ref.Feat = tc.feat
			ref.Hook = &recordingHook{pcs: &refSeen}
			ref.EnableProfile()
			refTrap := ref.Run()
			got := newTestMachine(t, tc.src, EngineBlock, tc.setup)
			got.Feat = tc.feat
			got.Hook = &recordingHook{pcs: &gotSeen}
			gotTrap := got.Run()
			compareMachines(t, tc.name, ref, got, refTrap, gotTrap)
			if len(refSeen) != len(gotSeen) {
				t.Fatalf("hook stream length: interp=%d block=%d", len(refSeen), len(gotSeen))
			}
			for i := range refSeen {
				if refSeen[i] != gotSeen[i] {
					t.Fatalf("hook stream diverges at %d: interp pc=%d block pc=%d", i, refSeen[i], gotSeen[i])
				}
			}
			noBlocks(t, "hooked", got)

			profOnly := newTestMachine(t, tc.src, EngineBlock, tc.setup)
			profOnly.Feat = tc.feat
			profOnly.EnableProfile()
			profTrap := profOnly.Run()
			compareMachines(t, tc.name+"/profile", ref, profOnly, refTrap, profTrap)
			if !slices.Equal(ref.profile, profOnly.profile) {
				t.Error("profile-only per-PC profile mismatch")
			}
			noBlocks(t, "profile-only", profOnly)

			plain := newTestMachine(t, tc.src, EngineBlock, tc.setup)
			plain.Feat = tc.feat
			plainTrap := plain.Run()
			compareMachines(t, tc.name+"/unhooked", ref, plain, refTrap, plainTrap)
			if plain.Translations() == nil || plain.BlockStats.Hits+plain.BlockStats.Misses == 0 {
				t.Errorf("unhooked block-engine run attached no cache or ran no blocks: %+v", plain.BlockStats)
			}
		})
	}
}

// recordingHook captures the PC at every PreStep and checks PostStep
// sees the same PC (the interpreter's advance-after-PostStep contract).
type recordingHook struct {
	pcs *[]int
}

func (h *recordingHook) PreStep(m *Machine, ins *isa.Instruction) {
	*h.pcs = append(*h.pcs, m.PC)
}

func (h *recordingHook) PostStep(m *Machine, ins *isa.Instruction) error {
	if n := len(*h.pcs); n > 0 && (*h.pcs)[n-1] != m.PC {
		return fmt.Errorf("PostStep pc=%d, PreStep saw %d", m.PC, (*h.pcs)[n-1])
	}
	return nil
}

// TestResetKeepsTranslations is the regression test for the Reset bug:
// rewinding execution state must not discard the translation cache, or
// every rerun recompiles the whole program. Before the fix, Reset wiped
// the cache attachment and the second run rebuilt every block.
func TestResetKeepsTranslations(t *testing.T) {
	// The cache belongs to the freshly assembled program, so the first
	// run starts cold.
	src := `
	movl r1 = 31337
	movl r2 = 0
loop:
	add r2 = r2, r1
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 31300
	(p6) br loop
	mov r32 = r0
	syscall 1
`
	m := newTestMachine(t, src, EngineBlock, nil)
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	tc := m.Translations()
	if tc == nil {
		t.Fatal("no translation cache attached after a block-engine run")
	}
	if m.BlockStats.Misses == 0 {
		t.Fatal("first run compiled nothing")
	}
	m.Reset()
	if m.Translations() != tc {
		t.Fatal("Reset dropped the translation cache")
	}
	if m.BlockStats.Hits != 0 || m.BlockStats.Misses != 0 {
		t.Fatal("Reset did not zero the block counters")
	}
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	if m.BlockStats.Misses != 0 || m.BlockStats.Compiled != 0 {
		t.Fatalf("rerun after Reset recompiled: %+v", m.BlockStats)
	}
	if m.BlockStats.Hits == 0 {
		t.Fatal("rerun after Reset did not hit the cache")
	}
	if m.Translations() != tc {
		t.Fatal("rerun swapped the translation cache")
	}
}

// TestTranslationSharedAcrossRuns: two machines over one program share
// the program's translation cache, so the second compiles nothing.
func TestTranslationSharedAcrossRuns(t *testing.T) {
	src := parityPrograms[0].src
	m1 := newTestMachine(t, src, EngineBlock, nil)
	if trap := m1.Run(); trap != nil {
		t.Fatal(trap)
	}
	m2 := newTestMachine(t, src, EngineBlock, func(m *Machine) { m.Prog = m1.Prog })
	if trap := m2.Run(); trap != nil {
		t.Fatal(trap)
	}
	if m1.Translations() == nil || m1.Translations() != m2.Translations() {
		t.Fatalf("machines over one program did not share a translation cache: %p vs %p",
			m1.Translations(), m2.Translations())
	}
	if m2.BlockStats.Compiled != 0 {
		t.Fatalf("second machine recompiled %d blocks despite the shared cache", m2.BlockStats.Compiled)
	}
	if m2.BlockStats.Hits == 0 {
		t.Fatal("second machine did not hit the shared cache")
	}
}

// TestTranslationTextReassigned: a program whose Text is reassigned
// after a block-engine run keeps its stale cache, which no machine may
// execute through — a fresh machine, and the old one rerun, must run
// the new code from a private cache.
func TestTranslationTextReassigned(t *testing.T) {
	m1 := newTestMachine(t, parityPrograms[0].src, EngineBlock, nil)
	if trap := m1.Run(); trap != nil {
		t.Fatal(trap)
	}
	stale := m1.Translations()
	p2, err := asm.Assemble("movl r32 = 77\nsyscall 1\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := m1.Prog
	prog.Text, prog.Entry = p2.Text, p2.Entry

	m2 := newTestMachine(t, "nop\n", EngineBlock, func(m *Machine) { m.Prog = prog; m.PC = prog.Entry })
	m1.Reset()
	for _, m := range []*Machine{m2, m1} {
		if trap := m.Run(); trap != nil {
			t.Fatal(trap)
		}
		if m.ExitStatus != 77 {
			t.Errorf("exit = %d, want 77 from the reassigned text", m.ExitStatus)
		}
		if m.Translations() == nil || m.Translations() == stale {
			t.Error("machine executed through the stale translation cache")
		}
	}
}

// TestTranslationInvalidatedOnProgramSwap: swapping a machine to a
// different program must detach the stale cache (counted as an
// invalidation) and attach one for the new text.
func TestTranslationInvalidatedOnProgramSwap(t *testing.T) {
	m := newTestMachine(t, parityPrograms[0].src, EngineBlock, nil)
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	first := m.Translations()

	p2, err := asm.Assemble("movl r32 = 77\nsyscall 1\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Prog = p2
	m.Reset()
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	if m.ExitStatus != 77 {
		t.Fatalf("swapped program exit = %d, want 77", m.ExitStatus)
	}
	if m.BlockStats.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", m.BlockStats.Invalidations)
	}
	if m.Translations() == first {
		t.Fatal("stale translation cache still attached after program swap")
	}
}
