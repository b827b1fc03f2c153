package machine

import "sort"

// Profiling support: per-PC retirement counts. The paper repeatedly
// points at profiling-guided decisions (when control speculation pays
// off, §3.3.4; adaptive tracking, §4.4); this is the measurement substrate
// for them.

// EnableProfile starts counting retirements per instruction index.
func (m *Machine) EnableProfile() {
	m.profile = make([]uint64, len(m.Prog.Text))
}

// Hotspot is one profiled instruction.
type Hotspot struct {
	PC     int
	Count  uint64
	Symbol string // nearest preceding code symbol
	Ins    string
}

// symAt is one code symbol and the instruction index it labels.
type symAt struct {
	idx  int
	name string
}

// symbolTable builds the sorted nearest-symbol table both profile views
// share: function symbols (internal `.`-prefixed labels excluded) in
// index order, ties broken by name. The tie-break matters: Symbols is a
// map, so two labels on the same instruction arrive in random order, and
// an index-only sort would attribute that pc's counts to whichever label
// the iteration happened to yield — nondeterministically across runs.
func (m *Machine) symbolTable() []symAt {
	syms := make([]symAt, 0, len(m.Prog.Symbols))
	for name, idx := range m.Prog.Symbols {
		if len(name) > 0 && name[0] == '.' {
			continue // internal labels are not function boundaries
		}
		syms = append(syms, symAt{idx, name})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].idx != syms[j].idx {
			return syms[i].idx < syms[j].idx
		}
		return syms[i].name < syms[j].name
	})
	return syms
}

// nearestSymbol returns the last symbol at or before pc ("" when pc
// precedes every symbol). The table is sorted, so one binary search
// replaces the per-hotspot linear scan.
func nearestSymbol(syms []symAt, pc int) string {
	i := sort.Search(len(syms), func(i int) bool { return syms[i].idx > pc })
	if i == 0 {
		return ""
	}
	return syms[i-1].name
}

// Hotspots returns the n most-retired instructions, hottest first.
func (m *Machine) Hotspots(n int) []Hotspot {
	if m.profile == nil {
		return nil
	}
	syms := m.symbolTable()

	var out []Hotspot
	for pc, count := range m.profile {
		if count > 0 {
			out = append(out, Hotspot{PC: pc, Count: count})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Symbol = nearestSymbol(syms, out[i].PC)
		out[i].Ins = m.Prog.Text[out[i].PC].String()
	}
	return out
}

// FunctionProfile aggregates retirement counts by nearest symbol,
// busiest first.
func (m *Machine) FunctionProfile() []Hotspot {
	if m.profile == nil {
		return nil
	}
	hs := make([]Hotspot, 0, 16)
	byName := make(map[string]uint64)
	syms := m.symbolTable()
	si := 0
	current := ""
	for pc, count := range m.profile {
		for si < len(syms) && syms[si].idx <= pc {
			current = syms[si].name
			si++
		}
		byName[current] += count
	}
	for name, count := range byName {
		if count > 0 {
			hs = append(hs, Hotspot{Symbol: name, Count: count})
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Count != hs[j].Count {
			return hs[i].Count > hs[j].Count
		}
		return hs[i].Symbol < hs[j].Symbol
	})
	return hs
}
