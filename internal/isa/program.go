package isa

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Program is a linked or linkable unit: an instruction sequence plus the
// symbol tables needed to resolve branch targets and data addresses.
type Program struct {
	Text []Instruction

	// Symbols maps a code label to its instruction index.
	Symbols map[string]int

	// DataSymbols maps a data label to its absolute virtual address.
	DataSymbols map[string]uint64

	// Data is the initial data image, loaded at DataBase.
	Data     []byte
	DataBase uint64

	// Entry is the instruction index where execution starts.
	Entry int

	// engineOnce/engine hold the execution engine's derived data (see
	// EngineCache). The Once makes copying a Program by value a vet error.
	engineOnce sync.Once
	engine     any
}

// EngineCache returns the program's execution-engine data, calling build
// once — concurrently safe — on first use. The data is derived from Text,
// so Text must not be edited in place once the program has run; assign a
// new slice instead, which the engine detects.
func (p *Program) EngineCache(build func() any) any {
	p.engineOnce.Do(func() { p.engine = build() })
	return p.engine
}

// Link resolves every symbolic branch target to an instruction index.
// Instructions that already carry a resolved Target (Label == "") are left
// alone. Link is idempotent.
func (p *Program) Link() error {
	for idx := range p.Text {
		ins := &p.Text[idx]
		if ins.Label == "" {
			continue
		}
		t, ok := p.Symbols[ins.Label]
		if !ok {
			return fmt.Errorf("isa: link: undefined label %q at instruction %d (%s)", ins.Label, idx, ins.String())
		}
		ins.Target = t
	}
	return nil
}

// Validate checks every instruction and that branch targets are in range.
func (p *Program) Validate() error {
	for idx := range p.Text {
		ins := &p.Text[idx]
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("instruction %d: %w", idx, err)
		}
		if ins.Op.IsBranch() && ins.Op != OpBrRet && ins.Op != OpBrInd && ins.Label == "" {
			if ins.Target < 0 || ins.Target >= len(p.Text) {
				return fmt.Errorf("instruction %d (%s): branch target %d out of range", idx, ins.Op.Name(), ins.Target)
			}
		}
	}
	if p.Entry < 0 || (len(p.Text) > 0 && p.Entry >= len(p.Text)) {
		return fmt.Errorf("entry point %d out of range", p.Entry)
	}
	return nil
}

// SymbolAt returns the labels attached to instruction index idx, sorted.
func (p *Program) SymbolAt(idx int) []string {
	var out []string
	for name, at := range p.Symbols {
		if at == idx {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Disassemble renders the whole program in assembler syntax.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for idx := range p.Text {
		for _, sym := range p.SymbolAt(idx) {
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		fmt.Fprintf(&b, "\t%s\n", p.Text[idx].String())
	}
	return b.String()
}

// CountByClass returns the static instruction count per cost class,
// the basis for the paper's Table 3 (code-size expansion).
func (p *Program) CountByClass() [NumCostClasses]int {
	var counts [NumCostClasses]int
	for idx := range p.Text {
		counts[p.Text[idx].Class]++
	}
	return counts
}
