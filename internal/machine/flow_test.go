package machine

import (
	"fmt"
	"testing"

	"shift/internal/isa"
	"shift/internal/mem"
)

// The checkers (oracle, tag pipeline, static analyses) read taint
// propagation from isa's transfer table; the machine implements NaT
// propagation on its own. These tests hold the table against the
// hardware model on both engines.

// flowRegs are the registers the flow tests run an instruction on:
// two distinct sources and a destination aliasing neither.
const (
	flowSrc1 = 5
	flowSrc2 = 6
	flowDest = 7
)

// runFlow executes ins followed by an exit syscall on a fresh machine
// under engine (unhooked, so EngineBlock takes the block driver), with
// NaT set on the registers in nat beforehand. Every source register
// holds a mapped, aligned, non-zero address, so only a NaT bit can make
// ins fault.
func runFlow(engine Engine, ins isa.Instruction, nat []uint8) (*Machine, *Trap) {
	p := &isa.Program{Text: []isa.Instruction{ins, {Op: isa.OpSyscall, Imm: isa.SysExit}}}
	memory := mem.New()
	memory.MapRegion(1, 0)
	m := New(p, memory)
	m.Engine = engine
	m.Feat = Features{SetClrNaT: true, NaTAwareCmp: true}
	m.OS = exitOnlyOS{}
	for _, r := range []uint8{flowSrc1, flowSrc2, flowDest} {
		m.GR[r] = int64(mem.Addr(1, 0x100))
	}
	for _, r := range nat {
		m.NaT[r] = true
	}
	return m, m.Run()
}

// TestFlowTableMatchesMachineNaT steps every union, copy, clear, setnat
// and clrnat opcode, the xor/sub self-clearing idiom included, under
// every NaT pattern of its sources and prior destination, and requires
// the destination's NaT bit to follow the kind's rule on both engines.
func TestFlowTableMatchesMachineNaT(t *testing.T) {
	var tested int
	for op := isa.OpInvalid + 1; op < isa.NumOpcodes; op++ {
		forms := []isa.Instruction{{Op: op, Dest: flowDest, Src1: flowSrc1, Src2: flowSrc2, B: 1}}
		if op.ReadsSrc2() {
			forms = append(forms, isa.Instruction{Op: op, Dest: flowDest, Src1: flowSrc1, Src2: flowSrc1, B: 1})
		}
		for _, ins := range forms {
			kind := ins.Flow()
			switch kind {
			case isa.FlowUnion, isa.FlowCopy, isa.FlowClear, isa.FlowSetNat, isa.FlowClrNat:
			default:
				continue
			}
			tested++
			for pattern := 0; pattern < 8; pattern++ {
				var nat []uint8
				n := map[uint8]bool{}
				for i, r := range []uint8{flowSrc1, flowSrc2, flowDest} {
					if pattern>>i&1 != 0 {
						nat = append(nat, r)
						n[r] = true
					}
				}
				var want bool
				switch kind {
				case isa.FlowUnion:
					want = n[ins.Src1] || n[ins.Src2]
				case isa.FlowCopy:
					want = n[ins.Src1]
				case isa.FlowSetNat:
					want = true
				}
				for _, engine := range []Engine{EngineInterp, EngineBlock} {
					label := fmt.Sprintf("%s [%v] NaT on %v", ins.String(), engine, nat)
					m, trap := runFlow(engine, ins, nat)
					if trap != nil {
						t.Errorf("%s: trap %v", label, trap)
						continue
					}
					if m.NaT[flowDest] != want {
						t.Errorf("%s: dest NaT = %v, kind %d says %v", label, m.NaT[flowDest], kind, want)
					}
				}
			}
		}
	}
	if tested < 25 {
		t.Errorf("only %d instruction forms had a register-only kind", tested)
	}
}

// TestNaTFaultColumnMatchesMachine requires every NaT-fault source the
// table lists to trap as a NaT consumption on both engines when it alone
// carries NaT, and the same instruction to run clean without it.
func TestNaTFaultColumnMatchesMachine(t *testing.T) {
	var tested int
	for op := isa.OpInvalid + 1; op < isa.NumOpcodes; op++ {
		f1, f2 := op.NaTFaults()
		ins := isa.Instruction{Op: op, Dest: flowDest, Src1: flowSrc1, Src2: flowSrc2, B: 1, Size: 8}
		for _, engine := range []Engine{EngineInterp, EngineBlock} {
			if !f1 && !f2 {
				continue
			}
			if _, trap := runFlow(engine, ins, nil); trap != nil {
				t.Errorf("%s [%v] without NaT: trap %v", ins.String(), engine, trap)
			}
			for _, src := range []struct {
				faults bool
				reg    uint8
			}{{f1, flowSrc1}, {f2, flowSrc2}} {
				if !src.faults {
					continue
				}
				tested++
				_, trap := runFlow(engine, ins, []uint8{src.reg})
				if trap == nil || !trap.Kind.IsNaTConsumption() {
					t.Errorf("%s [%v] NaT on r%d: trap %v, want a NaT consumption", ins.String(), engine, src.reg, trap)
				}
			}
		}
	}
	if tested < 2*9 {
		t.Errorf("only %d NaT-fault sources checked", tested)
	}
}
