package attacks

import (
	"fmt"

	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/taint"
)

// Corpus evaluation: typed verdicts that keep the two detection
// paths — H-policy sink alerts and L-policy NaT-consumption traps —
// distinguishable, so a scenario cannot "pass" by tripping the wrong
// machinery, and benign runs that fault are reported instead of
// silently conflated with clean runs.

// Verdict kinds. VerdictSink and VerdictTrap intentionally reuse the
// Scenario Kind constants, so an exploit verdict matches its scenario
// exactly when the detection arrived through the declared path.
const (
	VerdictSilent = "silent" // ran to completion, no alert
	VerdictSink   = KindSink // alert raised by a syscall sink check (H1–H5)
	VerdictTrap   = KindTrap // alert from a NaT-consumption trap (L1–L3)
	VerdictFault  = "fault"  // non-policy trap (a bug, or a suppressed L policy)
)

// Verdict classifies one run's outcome.
type Verdict struct {
	Kind     string
	Policy   string        // policy ID for sink/trap verdicts
	Channels taint.Channel // violation channel attribution, when available
	Detail   string
}

// Classify derives the typed verdict from a run result. The sink/trap
// split keys off the alert's underlying trap: L-policy alerts wrap a
// real NaT-consumption fault, H-policy alerts wrap the synthetic trap
// the sink check raised.
func Classify(res *shift.Result) Verdict {
	switch {
	case res.Alert != nil:
		v := Verdict{Policy: res.Alert.Violation.Policy, Detail: res.Alert.String()}
		v.Channels = res.Alert.Violation.Channels
		if res.Alert.Trap != nil && res.Alert.Trap.Kind.IsNaTConsumption() {
			v.Kind = VerdictTrap
		} else {
			v.Kind = VerdictSink
		}
		return v
	case res.Trap != nil:
		return Verdict{Kind: VerdictFault, Detail: res.Trap.Error()}
	default:
		return Verdict{Kind: VerdictSilent}
	}
}

// Matrix is the checker/instrumentation matrix the corpus must hold
// under, at each of grans: plain, lockstep oracle, decoupled tag
// pipeline, and selective instrumentation with the oracle watching.
func Matrix(grans ...taint.Granularity) []shift.Options {
	var out []shift.Options
	for _, g := range grans {
		plain := shift.Options{Instrument: true, Granularity: g}
		oracle, piped, selective := plain, plain, plain
		oracle.Oracle = true
		piped.Decoupled = 1
		selective.Selective, selective.Oracle = true, true
		out = append(out, plain, oracle, piped, selective)
	}
	return out
}

// Label names a Matrix configuration: granularity/checker, for example
// "byte/plain" or "word/selective+oracle".
func Label(opt shift.Options) string {
	_, gran := opt.ResolvePolicy()
	l := gran.String()
	switch {
	case opt.Oracle && opt.Selective:
		l += "/selective+oracle"
	case opt.Oracle:
		l += "/oracle"
	case opt.Decoupled != 0:
		l += "/tagpipe"
	default:
		l += "/plain"
	}
	return l
}

// resolve pins opt's policy to a private copy of the one in force
// (Options.ResolvePolicy), so an evaluation never shares or mutates its
// caller's configuration.
func resolve(opt shift.Options) shift.Options {
	conf, gran := opt.ResolvePolicy()
	conf = conf.Clone()
	conf.Granularity = gran
	opt.Policy = conf
	return opt
}

// Outcome is a scenario's full evaluation at one configuration.
type Outcome struct {
	Scenario    *Scenario
	Opt         shift.Options // the protected runs' options, policy resolved
	Benign      Verdict       // must be silent
	Exploit     Verdict       // must match the scenario's Kind and Expect
	Unprotected Verdict       // must be silent (the attack works without SHIFT)
}

// Detected reports a correct detection: the exploit tripped the expected
// policy through the expected path, the benign run was silent, and the
// unprotected run let the attack through.
func (o *Outcome) Detected() bool {
	return o.Benign.Kind == VerdictSilent &&
		o.Exploit.Kind == o.Scenario.Kind &&
		o.Exploit.Policy == o.Scenario.Expect &&
		o.Unprotected.Kind == VerdictSilent
}

// buildScenario builds the scenario's program, instrumented per opt or
// as the uninstrumented baseline.
func buildScenario(s *Scenario, opt shift.Options) (*isa.Program, error) {
	if s.Asm {
		return shift.BuildAsm(s.Program, s.Source, opt)
	}
	return shift.Build([]shift.Source{{Name: s.Program, Text: s.Source}}, opt)
}

// EvaluateScenario runs one corpus scenario: benign and exploit under
// opt (normally instrumented), exploit without SHIFT. Scenarios with a
// custom harness (pool bleed) evaluate through it instead.
func EvaluateScenario(s *Scenario, opt shift.Options) (*Outcome, error) {
	opt = resolve(opt)
	if s.Eval != nil {
		return s.Eval(opt)
	}
	prog, err := buildScenario(s, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", s.Program, err)
	}
	baseProg, err := buildScenario(s, shift.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: baseline build: %w", s.Program, err)
	}

	out := &Outcome{Scenario: s, Opt: opt}
	benign, err := shift.Run(prog, s.Benign(), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: benign run: %w", s.Program, err)
	}
	out.Benign = Classify(benign)

	exploit, err := shift.Run(prog, s.Exploit(), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: exploit run: %w", s.Program, err)
	}
	out.Exploit = Classify(exploit)

	raw, err := shift.Run(baseProg, s.Exploit(), shift.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: unprotected run: %w", s.Program, err)
	}
	out.Unprotected = Classify(raw)
	return out, nil
}

// EvaluateCorpus runs every corpus scenario at one configuration.
func EvaluateCorpus(opt shift.Options) ([]*Outcome, error) {
	var out []*Outcome
	for _, s := range Corpus() {
		o, err := EvaluateScenario(s, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// runPoolBleed is PoolBleed's custom harness. Its "exploit" is a
// lifecycle, not an input: the attacker request sprays taint, a naive
// recycle (registers + data segment, no tag clear) smuggles the tags,
// and the victim's trusted-channel query false-positives H3. The benign
// arm is the same tenant pair over internal/pool, whose recycle clears
// tags. The unprotected arm runs the pair uninstrumented.
//
// The naive-recycle arm runs without the lockstep/decoupled checkers:
// the broken lifecycle violates the checkers' own invariant (stale tag
// bits with no shadow provenance), which is precisely the defect the
// scenario documents — the checkers would stop the run before the
// victim's sink is reached.
func runPoolBleed(opt shift.Options) (*Outcome, error) {
	s := scnPoolBleed
	prog, err := buildScenario(s, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", s.Program, err)
	}
	out := &Outcome{Scenario: s, Opt: opt}

	// Benign arm: attacker then victim through the pool (tag clear on
	// recycle). The victim must stay silent.
	p, err := pool.New(prog, 1, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: pool: %w", s.Program, err)
	}
	if res, err := p.Run(s.Exploit()); err != nil {
		return nil, fmt.Errorf("%s: pooled attacker run: %w", s.Program, err)
	} else if res.Alert != nil || res.Trap != nil {
		return nil, fmt.Errorf("%s: attacker request should complete silently: alert=%v trap=%v", s.Program, res.Alert, res.Trap)
	}
	vres, err := p.Run(s.Benign())
	if err != nil {
		return nil, fmt.Errorf("%s: pooled victim run: %w", s.Program, err)
	}
	out.Benign = Classify(vres)

	// Exploit arm: same tenant pair over a naive recycle that forgets
	// the tag bitmap. The bleed surfaces as H3 on the victim.
	noCheck := opt
	noCheck.Oracle, noCheck.Decoupled = false, 0
	exploit, err := runNaiveRecycle(prog, noCheck, s.Exploit(), s.Benign())
	if err != nil {
		return nil, err
	}
	out.Exploit = exploit

	// Unprotected arm: no instrumentation, no tags to bleed.
	baseProg, err := buildScenario(s, shift.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: baseline build: %w", s.Program, err)
	}
	raw, err := runNaiveRecycle(baseProg, shift.Options{}, s.Exploit(), s.Benign())
	if err != nil {
		return nil, err
	}
	out.Unprotected = raw
	return out, nil
}

// runNaiveRecycle reuses one guest for two requests with the pre-fix
// lifecycle — registers restored and globals rewritten, the tag bitmap
// forgotten — and returns the second request's verdict.
func runNaiveRecycle(prog *isa.Program, opt shift.Options, first, second *shift.World) (Verdict, error) {
	img, err := loader.Load(prog)
	if err != nil {
		return Verdict{}, err
	}
	mach := img.NewMachine()
	regs := mach.SnapshotRegs()
	var tags *taint.Space
	if opt.Instrument {
		_, gran := opt.ResolvePolicy()
		tags = taint.NewSpace(img.Mem, gran)
	}
	runOn := func(w *shift.World) (*shift.Result, error) {
		w.HeapBase, w.StackTop = img.HeapBase, img.StackTop
		w.Tags = tags
		return shift.RunOn(mach, w, opt)
	}
	if _, err := runOn(first); err != nil {
		return Verdict{}, fmt.Errorf("naive recycle: first request: %w", err)
	}
	mach.RestoreRegs(regs)
	if len(prog.Data) > 0 {
		if f := img.Mem.WriteBytes(prog.DataBase, prog.Data); f != nil {
			return Verdict{}, fmt.Errorf("naive recycle: %v", f)
		}
	}
	res, err := runOn(second)
	if err != nil {
		return Verdict{}, fmt.Errorf("naive recycle: second request: %w", err)
	}
	return Classify(res), nil
}
