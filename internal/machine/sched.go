package machine

import (
	"fmt"

	"shift/internal/isa"
)

// Scheduler time-shares one simulated core among guest threads — the
// multi-threading support the paper defers to future work (§4.4). Each
// thread is a full Machine (its own registers, NaT bits, predicates,
// UNAT) sharing the program, memory and OS model. Scheduling is
// deterministic: round-robin with a fixed cycle quantum, so every
// interleaving reproduces exactly. Quantum expiry is tag-coherent by
// default — a slice stretches to the next original-program instruction,
// so a store and its tag-update sequence retire as one atomic block
// (see Machine.UnsafePreempt for the opt-out that reproduces the
// paper's §4.4 bitmap races).
type Scheduler struct {
	// Threads[0] is the initial thread; others come from Spawn.
	Threads []*Machine
	// Quantum is the cycle budget per slice.
	Quantum uint64

	// blocked maps a thread index to the thread index it joins on.
	blocked map[int]int
}

// DefaultQuantum is used when Quantum is zero.
const DefaultQuantum = 50

// NewScheduler wraps an initial machine.
func NewScheduler(main *Machine) *Scheduler {
	main.TID = 0
	return &Scheduler{Threads: []*Machine{main}, blocked: make(map[int]int)}
}

// Spawn creates a new thread at entry with the given first argument and
// stack pointer, inheriting the main thread's configuration. It returns
// the thread id.
func (s *Scheduler) Spawn(entry int, arg int64, sp uint64) int {
	src := s.Threads[0]
	m := New(src.Prog, src.Mem)
	m.OS = src.OS
	m.Feat = src.Feat
	m.Costs = src.Costs
	m.Budget = src.Budget
	m.Hook = src.Hook
	m.UnsafePreempt = src.UnsafePreempt
	m.Engine = src.Engine
	m.PC = entry
	m.BR[0] = HaltPC // returning from the entry function halts the thread
	m.GR[isa.RegSP] = int64(sp)
	m.GR[isa.RegGP] = src.GR[isa.RegGP]
	m.GR[isa.RegArg0] = arg
	// The kept NaT source and mask registers are per-thread state the
	// instrumented prologue establishes at __start only; inherit them.
	m.GR[isa.RegNaT] = src.GR[isa.RegNaT]
	m.NaT[isa.RegNaT] = src.NaT[isa.RegNaT]
	m.GR[119] = src.GR[119]
	m.TID = len(s.Threads)
	s.Threads = append(s.Threads, m)
	return m.TID
}

// Join blocks thread tid on target until it halts. It reports whether
// target names a live thread.
func (s *Scheduler) Join(tid, target int) bool {
	if target < 0 || target >= len(s.Threads) || target == tid {
		return false
	}
	if !s.Threads[target].Halted {
		s.blocked[tid] = target
	}
	return true
}

// runnable reports whether thread i can make progress now.
func (s *Scheduler) runnable(i int) bool {
	m := s.Threads[i]
	if m.Halted {
		return false
	}
	if len(s.blocked) != 0 {
		if t, ok := s.blocked[i]; ok {
			if !s.Threads[t].Halted {
				return false
			}
			delete(s.blocked, i)
		}
	}
	return true
}

// Run executes threads round-robin until the main thread halts, any
// thread traps, or nothing can make progress (a join deadlock, reported
// as a host error).
func (s *Scheduler) Run() *Trap {
	quantum := s.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	// Single-thread fast path: while only one thread exists the sweep
	// bookkeeping below is pure overhead, so run contiguous slices
	// directly. The slice-boundary arithmetic is kept bit-identical to
	// the general sweep (sliceEnd = cycles-at-slice-start + quantum), so
	// a spawn lands on exactly the boundary it always did.
	startAt := 0
	if len(s.Threads) == 1 {
		m := s.Threads[0]
		text := m.Prog.Text
		budget := m.resolveBudget()
		for len(s.Threads) == 1 && !m.Halted {
			// A spawn mid-slice ends the slice only at its boundary, so
			// the spawned thread's first slice lands where it always did.
			if trap := m.slice(text, budget, m.Cycles+quantum); trap != nil {
				return trap
			}
			m.YieldReq = false
		}
		if m.Halted {
			return nil
		}
		// A spawn ended the fast path right after thread 0's slice, so
		// the first general sweep picks up with the spawned threads.
		startAt = 1
	}
	for {
		if s.Threads[0].Halted {
			return nil
		}
		progressed := startAt > 0 // thread 0 already ran this sweep
		for i := startAt; i < len(s.Threads); i++ {
			if !s.runnable(i) {
				continue
			}
			progressed = true
			m := s.Threads[i]
			sliceEnd := m.Cycles + quantum
			// Hoist the budget resolution and text slice out of the
			// per-instruction path for the whole slice (both are fixed
			// before a run starts).
			text := m.Prog.Text
			budget := m.resolveBudget()
			// A spawn during this slice may have appended threads; they
			// get their first slice on the next sweep.
			if trap := m.slice(text, budget, sliceEnd); trap != nil {
				return trap
			}
			m.YieldReq = false
			if i == 0 && m.Halted {
				return nil
			}
		}
		startAt = 0
		if !progressed {
			return &Trap{
				Kind: TrapHostError,
				PC:   s.Threads[0].PC,
				Ins:  "<scheduler>",
				Err:  fmt.Errorf("all %d threads blocked: join deadlock", len(s.Threads)),
			}
		}
	}
}

// TotalCycles sums cycles across threads — the single-core wall-clock of
// the time-shared execution.
func (s *Scheduler) TotalCycles() uint64 {
	var total uint64
	for _, m := range s.Threads {
		total += m.Cycles
	}
	return total
}

// TotalRetired sums retired instructions across threads.
func (s *Scheduler) TotalRetired() uint64 {
	var total uint64
	for _, m := range s.Threads {
		total += m.Retired
	}
	return total
}
