package machine

import "shift/internal/isa"

// RegSnapshot is a machine's architectural register state, captured once
// (normally right after load, before first execution) and restored on
// every pool recycle. Together with mem.Snapshot/Restore it returns a
// guest to its post-load state in microseconds: registers copied back,
// accounting zeroed, identity cleared.
type RegSnapshot struct {
	GR   [isa.NumGR]int64
	NaT  [isa.NumGR]bool
	PR   [isa.NumPR]bool
	BR   [isa.NumBR]int64
	UNAT uint64
	CCV  uint64
	PC   int
}

// SnapshotRegs captures the machine's architectural register state.
func (m *Machine) SnapshotRegs() *RegSnapshot {
	return &RegSnapshot{
		GR:   m.GR,
		NaT:  m.NaT,
		PR:   m.PR,
		BR:   m.BR,
		UNAT: m.UNAT,
		CCV:  m.CCV,
		PC:   m.PC,
	}
}

// RestoreRegs rewinds the machine to the snapshot's architectural state
// with a clean per-run identity: it performs a full Reset (accounting
// zeroed, Halted cleared, TID and Hook dropped, translation cache and
// profile kept) and then overlays the snapshot's registers and
// PC. Memory is not touched — pair it with mem.Memory.Restore.
func (m *Machine) RestoreRegs(s *RegSnapshot) {
	m.Reset()
	m.GR = s.GR
	m.NaT = s.NaT
	m.PR = s.PR
	m.BR = s.BR
	m.UNAT = s.UNAT
	m.CCV = s.CCV
	m.PC = s.PC
}
