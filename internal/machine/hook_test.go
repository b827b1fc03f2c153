package machine

import (
	"errors"
	"testing"

	"shift/internal/isa"
	"shift/internal/mem"
)

type countingHook struct {
	pre, post int
	failAt    int // PostStep returns an error on this retirement (1-based); 0 disables
	err       error
}

func (h *countingHook) PreStep(m *Machine, ins *isa.Instruction) { h.pre++ }

func (h *countingHook) PostStep(m *Machine, ins *isa.Instruction) error {
	h.post++
	if h.failAt != 0 && h.post == h.failAt {
		return h.err
	}
	return nil
}

func hookProg(t *testing.T) *isa.Program {
	t.Helper()
	// cmpi p1,p2 = (r0 == 1) — false, so p1 clear and the predicated add
	// is squashed; the hook must still see it.
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 7},
		{Op: isa.OpCmpi, Src1: 0, Imm: 1, Cond: isa.CondEQ, P1: 1, P2: 2},
		{Op: isa.OpAddi, Qp: 1, Dest: 2, Src1: 1, Imm: 1},
		{Op: isa.OpAddi, Dest: 3, Src1: 1, Imm: 2},
	}
	p := &isa.Program{Text: text}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// The hook must fire exactly once per retirement, including for
// predicated-off instructions.
func TestStepHookFiresPerRetirement(t *testing.T) {
	p := hookProg(t)
	memory := mem.New()
	m := New(p, memory)
	h := &countingHook{}
	m.Hook = h
	for i := 0; i < len(p.Text); i++ {
		if trap := m.Step(); trap != nil {
			t.Fatalf("step %d: %v", i, trap)
		}
	}
	if h.pre != 4 || h.post != 4 {
		t.Errorf("hook fired pre=%d post=%d, want 4/4 (pred-off included)", h.pre, h.post)
	}
	if m.GR[2] != 0 {
		t.Errorf("squashed add committed: r2 = %d", m.GR[2])
	}
}

// A PostStep error must surface as a TrapOracle naming the instruction,
// and the PC must still point at it (not the successor).
func TestStepHookErrorTrapsOracle(t *testing.T) {
	p := hookProg(t)
	m := New(p, mem.New())
	sentinel := errors.New("shadow mismatch")
	m.Hook = &countingHook{failAt: 2, err: sentinel}
	var trap *Trap
	for i := 0; i < len(p.Text); i++ {
		if trap = m.Step(); trap != nil {
			break
		}
	}
	if trap == nil || trap.Kind != TrapOracle {
		t.Fatalf("trap = %v, want oracle divergence", trap)
	}
	if !errors.Is(trap.Err, sentinel) {
		t.Errorf("trap.Err = %v, want the hook's error", trap.Err)
	}
	if trap.PC != 1 {
		t.Errorf("trap.PC = %d, want 1 (the instruction the hook rejected)", trap.PC)
	}
}

// Spawn carries the hook over (threads of one run share its observer);
// Reset does not (a reset machine is a new run with a new identity).
func TestHookSurvivesSpawnNotReset(t *testing.T) {
	p := hookProg(t)
	m := New(p, mem.New())
	h := &countingHook{}
	m.Hook = h
	s := NewScheduler(m)
	tid := s.Spawn(0, 0, 0x1000)
	if s.Threads[tid].Hook != StepHook(h) {
		t.Error("Spawn did not inherit the hook")
	}

	m.Reset()
	if m.Hook != nil {
		t.Error("Reset carried the previous run's hook into the next run")
	}
}

// The machine-reuse lifecycle bug: a pooled guest Reset between two
// sequential runs kept the first run's TID and Hook, so the second
// run's retirements were delivered to the first run's observer and
// stamped with its thread id. Reset must hand the next run a clean
// identity. (This test failed before the fix: run2's retirements
// landed in run1's hook and the TID stayed 3.)
func TestResetClearsPerRunIdentity(t *testing.T) {
	p := hookProg(t)
	m := New(p, mem.New())
	m.TID = 3 // as a scheduler of run 1 would have set
	h1 := &countingHook{}
	m.Hook = h1

	// Run 1, observed by h1.
	for i := 0; i < len(p.Text); i++ {
		if trap := m.Step(); trap != nil {
			t.Fatalf("run 1 step %d: %v", i, trap)
		}
	}
	run1 := h1.post

	// Recycle. Run 2 belongs to a different request: its retirements
	// must not reach h1, and its thread identity must start clean.
	m.Reset()
	if m.TID != 0 {
		t.Errorf("Reset kept run 1's TID %d", m.TID)
	}
	for i := 0; i < len(p.Text); i++ {
		if trap := m.Step(); trap != nil {
			t.Fatalf("run 2 step %d: %v", i, trap)
		}
	}
	if h1.post != run1 {
		t.Errorf("run 2 retirements misattributed to run 1's hook: %d -> %d", run1, h1.post)
	}
}
