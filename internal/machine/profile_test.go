package machine

import (
	"reflect"
	"testing"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/mem"
)

// profileProg is a small counted loop with two function labels on the
// same instruction (the assembler permits several labels per line, and
// linked programs alias entry points routinely).
func profileProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(`
	.entry main
main:
zmain:
	movl r1 = 25
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
	return p
}

// Reset must carry the profile (zeroed), not silently undo EnableProfile.
// Pre-fix, Reset rebuilt the Machine without it and this test failed at
// the nil check.
func TestResetPreservesStats(t *testing.T) {
	p := profileProg(t)
	m := New(p, mem.New())
	m.OS = exitOnlyOS{}
	m.EnableProfile()
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	prof := m.profile
	if prof[1] == 0 {
		t.Fatal("run collected no profile; test program broken")
	}

	m.Reset()
	if m.profile == nil {
		t.Fatal("Reset dropped the profile: EnableProfile silently undone")
	}
	if &m.profile[0] != &prof[0] {
		t.Error("Reset replaced the profile instead of carrying it")
	}
	for pc, c := range prof {
		if c != 0 {
			t.Errorf("Reset left profile[%d] = %d, want 0", pc, c)
		}
	}

	// And the carried profile keeps counting on the next run.
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	if prof[1] == 0 {
		t.Error("carried profile did not count the second run")
	}
}

// Two symbols on the same pc must attribute counts identically on every
// call: the symbol table comes from a map, so without the name tie-break
// the winning label was whichever the iteration order produced. 64
// repetitions make a pre-fix mismatch essentially certain.
func TestFunctionProfileDeterministic(t *testing.T) {
	p := profileProg(t)
	m := New(p, mem.New())
	m.OS = exitOnlyOS{}
	m.EnableProfile()
	if trap := m.Run(); trap != nil {
		t.Fatal(trap)
	}
	first := m.FunctionProfile()
	if len(first) == 0 {
		t.Fatal("empty function profile")
	}
	// Ties sort by name, and the nearest-symbol rule takes the last
	// symbol at or before the pc, so "zmain" (not "main") owns the
	// shared entry — deterministically.
	for _, h := range first {
		if h.Symbol == "main" {
			t.Errorf("counts attributed to %q; the name tie-break should hand the shared pc to %q", "main", "zmain")
		}
	}
	for i := 0; i < 64; i++ {
		if got := m.FunctionProfile(); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: nondeterministic attribution:\n got %+v\nwant %+v", i, got, first)
		}
	}
	// Hotspots shares the same table and tie-break.
	hs := m.Hotspots(10)
	for _, h := range hs {
		if h.Symbol == "main" {
			t.Errorf("Hotspots attributed pc=%d to %q, want %q", h.PC, "main", "zmain")
		}
	}
}

// The binary-search nearestSymbol must agree with the linear reference
// on every pc, including before the first symbol and past the last.
func TestNearestSymbolMatchesLinearScan(t *testing.T) {
	syms := []symAt{{2, "a"}, {2, "b"}, {5, "f"}, {9, "g"}, {9, "h"}, {9, "i"}, {17, "z"}}
	linear := func(pc int) string {
		name := ""
		for _, s := range syms {
			if s.idx > pc {
				break
			}
			name = s.name
		}
		return name
	}
	for pc := -1; pc <= 20; pc++ {
		if got, want := nearestSymbol(syms, pc), linear(pc); got != want {
			t.Errorf("nearestSymbol(pc=%d) = %q, want %q", pc, got, want)
		}
	}
	if got := nearestSymbol(nil, 3); got != "" {
		t.Errorf("nearestSymbol on empty table = %q, want \"\"", got)
	}
}

// Hotspots must truncate to n and never surface internal `.`-prefixed
// labels as symbols.
func TestHotspotsTruncationAndInternalLabels(t *testing.T) {
	p, err := asm.Assemble(`
	.entry main
main:
	movl r1 = 30
.inner:
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br .inner
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
	hs := m.Hotspots(2)
	if len(hs) != 2 {
		t.Fatalf("Hotspots(2) returned %d entries", len(hs))
	}
	if hs[0].Count < hs[1].Count {
		t.Error("hotspots not sorted hottest-first")
	}
	for _, h := range hs {
		if h.Symbol != "main" {
			t.Errorf("pc=%d attributed to %q: internal label leaked or wrong symbol", h.PC, h.Symbol)
		}
	}
	for _, h := range m.FunctionProfile() {
		if len(h.Symbol) > 0 && h.Symbol[0] == '.' {
			t.Errorf("FunctionProfile surfaced internal label %q", h.Symbol)
		}
	}
}
