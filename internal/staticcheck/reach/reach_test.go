package reach_test

import (
	"testing"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/staticcheck/reach"
)

func analyze(t *testing.T, src string) (*isa.Program, *reach.Analysis) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, reach.Analyze(p, reach.Config{})
}

// at finds the instruction index of the n-th occurrence of op.
func at(t *testing.T, p *isa.Program, op isa.Opcode, n int) int {
	t.Helper()
	for i := range p.Text {
		if p.Text[i].Op == op {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("no occurrence %d of %v", n, op)
	return -1
}

// recv() seeds exactly the received-into object: loads from it carry
// MemTaint, loads from a different object do not, and the compares
// downstream inherit (only) the tainted operand.
func TestSeedAndObjectPrecision(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
other: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 64
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	movl r3 = other
	ld8 r4 = [r3]
	cmpi.ne p2, p3 = r2, 0
	cmpi.ne p4, p5 = r4, 0
	movl r32 = 0
	syscall 1
`)
	tainted := at(t, p, isa.OpLd, 0)
	cleanLd := at(t, p, isa.OpLd, 1)
	if f := a.At(tainted); !f.Live || !f.MemTaint {
		t.Errorf("load from received buffer: %+v, want live MemTaint", f)
	}
	if !a.Keep(tainted) {
		t.Error("load from received buffer not kept")
	}
	if f := a.At(cleanLd); !f.Live || f.MemTaint || f.AddrTaint {
		t.Errorf("load from untouched object: %+v, want clean", f)
	}
	if a.Keep(cleanLd) {
		t.Error("provably clean load kept")
	}
	if !a.Keep(at(t, p, isa.OpCmpi, 0)) {
		t.Error("compare of tainted operand not relaxed")
	}
	if a.Keep(at(t, p, isa.OpCmpi, 1)) {
		t.Error("compare of clean operand relaxed")
	}
}

// With no taint source in the program, every site is skippable.
func TestNoSeedsNothingKept(t *testing.T) {
	_, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r1 = buf
	movl r2 = 7
	st8 [r1] = r2
	ld8 r3 = [r1]
	cmpi.ne p2, p3 = r3, 0
	movl r32 = 0
	syscall 1
`)
	s := a.Stats()
	if s.Kept != 0 {
		t.Errorf("source-free program kept %d sites: %+v", s.Kept, s)
	}
	if s.Sites != 3 {
		t.Errorf("sites = %d, want 3", s.Sites)
	}
}

// A store of tainted data through a pointer with no modelled provenance
// widens to all of memory: every load in the program becomes reachable.
func TestUnknownStoreWidens(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
other: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	movl r3 = buf
	movl r4 = other
	add r5 = r3, r4
	st8 [r5] = r2
	movl r6 = other
	ld8 r7 = [r6]
	movl r32 = 0
	syscall 1
`)
	if s := a.Stats(); !s.AllTainted {
		t.Fatalf("two-pointer-sum store of tainted data did not widen: %+v", s)
	}
	last := at(t, p, isa.OpLd, 1)
	if !a.At(last).MemTaint {
		t.Error("load after full widening not MemTaint")
	}
}

// Taint flows through call arguments into the callee, and a callee's
// clobber taints the caller's scratch registers — but not its
// callee-saved, SP or reserved registers.
func TestCallReturnPropagation(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r32 = [r1]
	br.call b0, helper
	cmpi.ne p2, p3 = r14, 0
	cmpi.ne p4, p5 = r40, 0
	movl r32 = 0
	syscall 1
helper:
	cmpi.ne p2, p3 = r32, 0
	br.ret b0
`)
	// Inside helper the tainted argument arrives in r32.
	helper := p.Symbols["helper"]
	if !a.Keep(helper) {
		t.Error("callee compare on tainted argument not relaxed")
	}
	// After the call, scratch r14 may have been clobbered with anything
	// tainted; callee-saved r40 was never written and stays clean.
	if !a.Keep(at(t, p, isa.OpCmpi, 0)) {
		t.Error("post-call compare on scratch register not relaxed")
	}
	if a.Keep(at(t, p, isa.OpCmpi, 1)) {
		t.Error("post-call compare on callee-saved register relaxed")
	}
}

// The chk.s fallthrough proves its register NaT-free: compares after it
// need no relaxation even when the register was loaded from tainted
// memory.
func TestChkEdgeClearsTaint(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	chk.s r2, rec
	cmpi.ne p2, p3 = r2, 0
	movl r32 = 0
	syscall 1
rec:
	movl r32 = 1
	syscall 1
`)
	if a.Keep(at(t, p, isa.OpCmpi, 0)) {
		t.Error("compare after chk.s fallthrough relaxed")
	}
}

// Unreachable code is dead: its sites are skippable and reported as
// such.
func TestDeadCodeSkipped(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	br done
.dead:
	movl r1 = buf
	ld8 r2 = [r1]
	st8 [r1] = r2
done:
	movl r32 = 0
	syscall 1
`)
	ld := at(t, p, isa.OpLd, 0)
	if f := a.At(ld); f.Live {
		t.Errorf("unreached load live: %+v", f)
	}
	if a.Keep(ld) {
		t.Error("dead load kept")
	}
	if s := a.Stats(); s.DeadSites != 2 {
		t.Errorf("DeadSites = %d, want 2: %+v", s.DeadSites, s)
	}
}

// An indirect branch conservatively reaches every label, so taint
// survives into all of them.
func TestIndirectBranchWidensControl(t *testing.T) {
	p, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	movl r3 = 9
	mov b1 = r3
	br.ind b1
other:
	cmpi.ne p2, p3 = r2, 0
	movl r32 = 0
	syscall 1
`)
	if !a.Keep(at(t, p, isa.OpCmpi, 0)) {
		t.Error("compare reached via br.ind lost the operand's taint")
	}
}

// Source gating: with only the "file" channel enabled, recv() does not
// seed, but the taint() syscall always does.
func TestSourceGating(t *testing.T) {
	src := `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	movl r32 = 0
	syscall 1
`
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := reach.Analyze(p, reach.Config{Sources: map[string]bool{"file": true}})
	if a.At(at(t, p, isa.OpLd, 0)).MemTaint {
		t.Error("recv seeded with the network channel disabled")
	}

	explicit := `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 11
	movl r1 = buf
	ld8 r2 = [r1]
	movl r32 = 0
	syscall 1
`
	p2, err := asm.Assemble(explicit, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := reach.Analyze(p2, reach.Config{Sources: map[string]bool{"file": true}})
	if !a2.At(at(t, p2, isa.OpLd, 0)).MemTaint {
		t.Error("explicit taint() syscall did not seed despite channel gating")
	}
}

// Permissive functions must keep tainted-address accesses instrumented
// (full instrumentation cleans the address there; a skipped site would
// fault), while the same access pattern outside a permissive function
// is skippable — it faults identically under both builds.
func TestPermissiveAddressRule(t *testing.T) {
	src := `
.data
buf: .space 64
table: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	br.call b0, lookup
	movl r32 = 0
	syscall 1
lookup:
	movl r1 = buf
	ld8 r2 = [r1]
	movl r3 = table
	add r4 = r3, r2
	ld8 r5 = [r4]
	br.ret b0
`
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := reach.Analyze(p, reach.Config{Permissive: map[string]bool{"lookup": true}})
	plain := reach.Analyze(p, reach.Config{})
	idx := at(t, p, isa.OpLd, 1)
	if f := perm.At(idx); !f.AddrTaint {
		t.Fatalf("tainted-index table load has no AddrTaint: %+v", f)
	}
	if !perm.Keep(idx) {
		t.Error("tainted-address load in a permissive function skipped")
	}
	// Outside permissive functions a taint-derived address still keeps
	// the site: the points-to in-bounds assumption says the load stays
	// inside the (clean) table, but an attacker-steered index is exactly
	// how that assumption is violated at run time.
	if !plain.Keep(idx) {
		t.Error("tainted-address load skipped outside a permissive function")
	}
}

// Blocks() aggregates sites, kept counts and seeds per basic block.
func TestBlocksReport(t *testing.T) {
	_, a := analyze(t, `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	movl r32 = 0
	syscall 1
`)
	blocks := a.Blocks()
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	var sites, kept, seeds int
	for _, b := range blocks {
		sites += b.Sites
		kept += b.Kept
		seeds += b.Seeds
		if !b.Live {
			t.Errorf("straight-line block %d-%d dead", b.Start, b.End)
		}
	}
	if sites != 1 || kept != 1 || seeds != 1 {
		t.Errorf("sites/kept/seeds = %d/%d/%d, want 1/1/1", sites, kept, seeds)
	}
	s := a.Stats()
	if s.Blocks != len(blocks) || s.Edges == 0 || s.Sites != 1 || s.Kept != 1 {
		t.Errorf("stats inconsistent with blocks: %+v", s)
	}
}
