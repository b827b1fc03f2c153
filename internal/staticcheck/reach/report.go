package reach

import "shift/internal/isa"

// BlockFact is the per-basic-block aggregate of the per-instruction
// facts, for reporting (cmd/shiftlint -reach).
type BlockFact struct {
	Start int    `json:"start"` // first instruction index
	End   int    `json:"end"`   // one past the last instruction
	Sym   string `json:"sym"`   // nearest enclosing symbol of Start
	Live  bool   `json:"live"`  // reachable with some register state
	// Sites is the number of instrumentable sites (loads, stores,
	// cmpxchg, compares) in the block; Kept of those, the selective
	// pass would instrument.
	Sites int `json:"sites"`
	Kept  int `json:"kept"`
	// Seeds counts taint-seeding syscalls in the block.
	Seeds int `json:"seeds"`
}

// Stats summarizes the analysis for one program.
type Stats struct {
	Blocks     int  `json:"blocks"`
	Edges      int  `json:"edges"`
	Objects    int  `json:"objects"`         // abstract memory objects
	Tainted    int  `json:"tainted_objects"` // objects in the may-tainted set
	AllTainted bool `json:"all_tainted"`     // widened to "all of memory"
	Rounds     int  `json:"rounds"`          // outer fixpoint rounds
	Sites      int  `json:"sites"`
	Kept       int  `json:"kept"`
	Skipped    int  `json:"skipped"`
	DeadSites  int  `json:"dead_sites"` // sites in unreachable code
}

// isSeed reports whether the instruction can mark taint at run time.
func (a *Analysis) isSeed(pc int) bool {
	ins := &a.prog.Text[pc]
	if ins.Op != isa.OpSyscall {
		return false
	}
	switch ins.Imm {
	case isa.SysRead, isa.SysRecv, isa.SysGetArg, isa.SysTaint:
		return true
	}
	return false
}

// Blocks partitions the program into basic blocks (leaders: entry,
// every label, every branch target, every branch successor) and
// aggregates the facts per block.
func (a *Analysis) Blocks() []BlockFact {
	p := a.prog
	n := len(p.Text)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	leader[0] = true
	if p.Entry >= 0 && p.Entry < n {
		leader[p.Entry] = true
	}
	for _, idx := range p.Symbols {
		if idx >= 0 && idx < n {
			leader[idx] = true
		}
	}
	for i := range p.Text {
		ins := &p.Text[i]
		if !ins.Op.IsBranch() && ins.Op != isa.OpChkS {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
		for _, e := range a.g.Succ[i] {
			if e.To >= 0 && e.To < n {
				leader[e.To] = true
			}
		}
	}

	var blocks []BlockFact
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		b := BlockFact{Start: start, End: end, Sym: a.g.SymFor(start)}
		for pc := start; pc < end; pc++ {
			if a.facts[pc].Live {
				b.Live = true
			}
			if p.Text[pc].Site() != isa.SiteNone {
				b.Sites++
				if a.Keep(pc) {
					b.Kept++
				}
			}
			if a.isSeed(pc) {
				b.Seeds++
			}
		}
		blocks = append(blocks, b)
		start = end
	}
	return blocks
}

// Stats aggregates the whole-program summary.
func (a *Analysis) Stats() Stats {
	s := Stats{
		Objects:    a.nObj,
		AllTainted: a.allTainted,
		Rounds:     a.rounds,
	}
	for q := a.tainted; q != 0; q &= q - 1 {
		s.Tainted++
	}
	if a.allTainted {
		s.Tainted = a.nObj
	}
	for i := range a.g.Succ {
		s.Edges += len(a.g.Succ[i])
	}
	s.Blocks = len(a.Blocks())
	for pc := range a.prog.Text {
		if a.prog.Text[pc].Site() == isa.SiteNone {
			continue
		}
		s.Sites++
		switch {
		case !a.facts[pc].Live:
			s.DeadSites++
			s.Skipped++
		case a.Keep(pc):
			s.Kept++
		default:
			s.Skipped++
		}
	}
	return s
}
