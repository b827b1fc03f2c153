// Package instrument implements SHIFT itself: the compiler pass that
// turns an ordinary program into a taint-tracking one (paper §3, §4,
// Figure 5). It runs on the post-register-allocation instruction stream,
// the same pipeline point the paper's GCC pass occupies, and rewrites
//
//   - every load: compute the Figure 4 tag address, read the bitmap,
//     and conditionally set the destination register's NaT bit from the
//     kept NaT-source register (or with setnat, when enhancement 1 is on);
//   - every store: test the source's NaT bit (tnat), read-modify-write
//     the bitmap, and perform the store in a NaT-tolerant way (st8.spill
//     for 8-byte stores, a predicated clear-then-store for narrower ones);
//   - every compare whose operands are not provably clean: "relax" it so
//     that tainted operands compare normally instead of clearing both
//     predicates — by spilling copies through memory to strip NaT (base
//     Itanium), by clrnat (enhancement 1), or by substituting cmp.na
//     (enhancement 2, which removes relaxation entirely).
//
// Register-preservation traffic marked ABI by the code generator is left
// alone: its NaT bits travel through UNAT, not the bitmap.
//
// The pass reserves registers r120..r126 and r127 (the NaT source) and
// predicates p8..p11, which generated code never touches.
package instrument

import (
	"fmt"
	"strings"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/staticcheck"
	"shift/internal/staticcheck/reach"
	"shift/internal/taint"
)

// Reserved instrumentation registers.
const (
	rKeep  = isa.RegKeep // OffsetMask kept live under Options.Optimize
	rTag   = 120         // tag byte address
	rOff   = 121         // implemented offset of the data address
	rVal   = 122         // tag byte value
	rBit   = 123         // bit index / mask shift amount
	rMask  = 124         // bit mask / cleaned data copy
	rAddr  = 125         // scratch-slot address / cleaned operand copy
	rAddr2 = 126         // copy of the data address / second cleaned operand
	rNaT   = isa.RegNaT
)

// Reserved instrumentation predicates.
const (
	pT  = 8  // tag/taint present
	pF  = 9  // complement of pT
	pT2 = 10 // second operand tainted
	pF2 = 11 // complement of pT2
)

// UNAT bits reserved for instrumentation spills (the generated code uses
// 0..17 for call-site temps and 32..63 for callee saves).
const (
	unatStore = 31
	unatRelax = 30
)

// badAddr is an unmapped address used to manufacture the NaT source via a
// faulting speculative load (§4.3: "SHIFT fakes an invalid address and
// issues a speculative load from it").
var badAddr = mem.Addr(7, 0)

// Options configures the pass.
type Options struct {
	// Gran selects byte- or word-level tracking.
	Gran taint.Granularity
	// Feat enables the enhancement instructions (§6.3). SetClrNaT makes
	// the pass emit setnat/clrnat; NaTAwareCmp makes it emit cmp.na.
	Feat machine.Features
	// NaTPerFunction regenerates the NaT source register at every
	// function entry instead of once at program start — the ablation the
	// paper measured at ~3X against keeping it live (§4.4).
	NaTPerFunction bool
	// NaTPerUse regenerates the NaT source immediately before every
	// tainting site: the cost a compiler pays when it cannot reserve a
	// register across the whole program.
	NaTPerUse bool
	// Permissive lists functions in which dereferencing a tainted
	// pointer is allowed (the paper's escape hatch for bounds-checked
	// translation tables, §3.3.2): their memory-access address registers
	// are cleaned before use and taint flows only through the bitmap.
	Permissive map[string]bool
	// UserGuards inserts chk.s checks before critical uses of possibly
	// tainted registers — syscall arguments and branch-register moves —
	// branching to a generated user-level handler instead of taking a
	// hardware NaT-consumption fault (§3.3.3: user-level handling of
	// security violation exceptions).
	UserGuards bool
	// SerializedTags makes byte-level bitmap updates lock-free atomic
	// (a ld1 / cmpxchg1 retry loop through ar.ccv) so multi-threaded
	// guests cannot lose tag updates to torn read-modify-writes — the
	// serialization the paper identifies as the missing piece for
	// threaded programs (§4.4). Word-level tag writes are single stores
	// and need no serialization.
	SerializedTags bool
	// Optimize enables the simple compiler optimizations the paper
	// sketches as future work (§4.4, §6.4): the OffsetMask constant is
	// kept live in a reserved register instead of re-materialised per
	// access, and the tag-address translation is reused when the same
	// unmodified address register is accessed again within a basic
	// block ("reusing the computation code for some adjacent data").
	Optimize bool
	// SkipVerify disables the post-pass static verification of the
	// instrumentation contract (internal/staticcheck). The gate is on by
	// default: an output that fails its own invariants is a pass bug,
	// not a program to run. Tools that want to inspect a broken output
	// (cmd/shiftlint) opt out and run the checker themselves.
	SkipVerify bool
	// Selective runs the whole-program taint-reachability analysis
	// (internal/staticcheck/reach) first and leaves every site it proves
	// can never touch tainted data in its original encoding: no tag
	// consult on loads, no tag update on stores, no relaxation on
	// compares. The post-pass contract verification runs in its
	// reachability-refined mode (staticcheck.CheckSelective) so the
	// sanctioned skips lint clean while everything else is still held to
	// the full contract.
	Selective bool
	// SelectiveSources gates the analysis' taint seeds by policy channel
	// ("file", "stdin", "network", "args"), mirroring how
	// policy.Config.Sources gates run-time taint marking. nil enables
	// every channel (most conservative). Only read under Selective.
	SelectiveSources map[string]bool
	// Stats, when non-nil, receives the pass' per-site accounting.
	Stats *Stats
	// ForceSkip (tests only) forces the sites at these *input* indexes to
	// keep their original encoding, modelling an unsound reachability
	// analysis: the skips are still exempted from the contract lint, so
	// the run-time oracle — not the static gate — must catch the
	// divergence. The mutation suite in internal/shift relies on this.
	ForceSkip map[int]bool
}

// Stats is the pass' site accounting: how many instrumentable sites the
// input had and what happened to each.
type Stats struct {
	// Sites is every instruction with an isa.Site: non-ABI loads,
	// stores, cmpxchg and cmp/cmpi.
	Sites int
	// Kept sites received the full tag/relaxation sequence.
	Kept int
	// Skipped sites kept their original encoding because the
	// reachability analysis proved them taint-free (or ForceSkip said
	// so).
	Skipped int
	// CleanCompares kept their original encoding because the local
	// cleanliness analysis proved both operands NaT-free — the full
	// (non-selective) pass skips these too, so they are not counted as
	// selective wins.
	CleanCompares int
}

// Apply rewrites prog into its instrumented form. The input program is
// not modified.
func Apply(prog *isa.Program, opt Options) (*isa.Program, error) {
	out, _, err := apply(prog, opt)
	return out, err
}

// ApplyWithExempt runs Apply and additionally returns the output-index
// set of analysis-sanctioned uninstrumented sites, for tools that rerun
// the contract checker themselves (cmd/shiftlint, the mutation suite).
func ApplyWithExempt(prog *isa.Program, opt Options) (*isa.Program, map[int]bool, error) {
	return apply(prog, opt)
}

// apply is Apply, also returning the exempt set.
func apply(prog *isa.Program, opt Options) (*isa.Program, map[int]bool, error) {
	ins := &inserter{
		opt:    opt,
		tagFor: -1,
		out: &isa.Program{
			Symbols:     make(map[string]int, len(prog.Symbols)),
			DataSymbols: make(map[string]uint64, len(prog.DataSymbols)),
			DataBase:    prog.DataBase,
		},
	}

	// Copy the data segment and symbols. (NaT-stripping spills use the
	// per-thread stack red zone, so no shared scratch slot is needed.)
	data := make([]byte, len(prog.Data))
	copy(data, prog.Data)
	for name, addr := range prog.DataSymbols {
		ins.out.DataSymbols[name] = addr
	}
	ins.out.Data = data

	// Function entries (for per-function NaT regeneration and for the
	// permissive-pointer function set), plus the set of join points —
	// every label AND every raw (unlabelled) branch target. Both reset
	// the compare-cleanliness analysis and the cached tag translation:
	// a branch can enter mid-stream with different register contents
	// than the fallthrough path established.
	funcEntry := make(map[int][]string)
	joinAt := make(map[int]bool)
	for name, idx := range prog.Symbols {
		joinAt[idx] = true
		if !strings.HasPrefix(name, ".") {
			funcEntry[idx] = append(funcEntry[idx], name)
		}
	}
	for idx := range prog.Text {
		src := &prog.Text[idx]
		if src.Op.IsBranch() && src.Op != isa.OpBrRet && src.Op != isa.OpBrInd && src.Label == "" {
			joinAt[src.Target] = true
		}
	}

	// Selective mode: solve taint reachability over the input program.
	// Then decide which sites keep their original encoding, and whether
	// any kept memory site consumes the kept OffsetMask register and (when
	// it taints a destination without setnat) the NaT-source register:
	// an unconsumed keep-live sequence is dead weight the static checker
	// (rightly) flags.
	var ra *reach.Analysis
	if opt.Selective {
		ra = reach.Analyze(prog, reach.Config{
			Sources:    opt.SelectiveSources,
			Gran:       opt.Gran,
			Permissive: opt.Permissive,
		})
	}
	skip := make([]bool, len(prog.Text))
	for idx := range prog.Text {
		src := &prog.Text[idx]
		site := src.Site()
		if site == isa.SiteNone {
			continue
		}
		skip[idx] = opt.ForceSkip[idx] || (ra != nil && !ra.Keep(idx))
		if skip[idx] || site == isa.SiteCompare {
			continue
		}
		ins.needMask = true
		ins.needNaT = ins.needNaT || (src.Op.HasDest() && !opt.Feat.SetClrNaT)
	}
	ins.needMask = ins.needMask && opt.Optimize

	mapping := make([]int, len(prog.Text)+1)
	clean := newCleanTracker()
	permissive := false
	var stats Stats

	for idx := range prog.Text {
		mapping[idx] = len(ins.out.Text)
		src := &prog.Text[idx]

		// The NaT source must be live before the first tainting site:
		// regenerate it at every function entry under NaTPerFunction, and
		// always at the program entry — even when no symbol labels it
		// (hand-assembled programs may start executing at a bare index).
		if idx == prog.Entry || (opt.NaTPerFunction && len(funcEntry[idx]) > 0) {
			ins.emitNaTGen()
		}
		// Entering a function?
		if names, ok := funcEntry[idx]; ok {
			permissive = false
			for _, n := range names {
				if opt.Permissive[n] {
					permissive = true
				}
			}
		}
		// Any join point: forget cleanliness facts and any cached tag
		// translation.
		if joinAt[idx] {
			clean.reset()
			ins.tagFor = -1
		}

		site := src.Site()
		if site != isa.SiteNone && src.Qp != 0 {
			return nil, nil, fmt.Errorf("instrument: instruction %d (%s): predicated loads, stores, atomics and compares are not supported", idx, src.String())
		}
		switch {
		case site != isa.SiteNone:
			stats.Sites++
			switch {
			case skip[idx]:
				stats.Skipped++
				ins.skipSite(src)
			case site == isa.SiteCompare && clean.compareClean(src):
				stats.CleanCompares++
				ins.copy(src)
			default:
				stats.Kept++
				ins.emitSite(src, permissive)
			}
		case src.ABI:
			// Bookkeeping is not a guarded use: the epilogue's mov.tobr
			// moves the saved return address back.
			ins.copy(src)
		case src.Op == isa.OpSyscall && opt.UserGuards:
			ins.emitGuardedSyscall(src)
		case src.Op == isa.OpMovToBr && opt.UserGuards:
			ins.emitGuard(src.Src1, src.Qp)
			ins.copy(src)
		default:
			ins.copy(src)
		}
		clean.step(src)
		// Keep the cached tag translation honest: control transfers and
		// writes to the tracked register invalidate it.
		switch {
		case src.Op.IsBranch() || src.Op == isa.OpSyscall:
			ins.tagFor = -1
		case src.Op.HasDest() && int(src.Dest) == ins.tagFor:
			ins.tagFor = -1
		}
	}
	mapping[len(prog.Text)] = len(ins.out.Text)

	// Append the shared user-level violation handler, if any guard
	// referenced it.
	ins.emitHandler()

	// Remap symbols and raw branch targets; labelled branches re-link.
	for name, idx := range prog.Symbols {
		ins.out.Symbols[name] = mapping[idx]
	}
	for i := range ins.out.Text {
		t := &ins.out.Text[i]
		if t.Op.IsBranch() && t.Label == "" && t.Op != isa.OpBrRet && t.Op != isa.OpBrInd {
			t.Target = mapping[t.Target]
		}
	}
	ins.out.Entry = mapping[prog.Entry]
	if err := ins.out.Link(); err != nil {
		return nil, nil, fmt.Errorf("instrument: %w", err)
	}
	if err := ins.out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("instrument: %w", err)
	}
	if !opt.SkipVerify {
		// Reachability-refined contract check: analysis-sanctioned skips
		// are exempt, everything else is held to the full contract.
		if findings := staticcheck.CheckSelective(ins.out, ins.exempt); len(findings) > 0 {
			return nil, nil, fmt.Errorf("instrument: output violates the instrumentation contract (pass bug): %s (%d finding(s) total)",
				findings[0].String(), len(findings))
		}
	}
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return ins.out, ins.exempt, nil
}
