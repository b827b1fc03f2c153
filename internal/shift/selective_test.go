package shift_test

// Soundness suite for selective instrumentation (Options.Selective):
// a selectively instrumented build must be *verdict-equivalent* to the
// fully instrumented one — same traps (by kind), same alerts, same
// outputs, same exit status, and a bit-identical region-0 tag bitmap —
// across every Fig-7 workload and every Table-2 attack, benign and
// exploit, under both run-time checkers (the lockstep oracle and the
// decoupled tag pipeline). The oracle's shadow models full Figure-5
// semantics, so running it over a selective build re-validates every
// skip at run time: an unsound skip surfaces as a TrapOracle
// divergence. The mutation suite below injects exactly such unsound
// skips and proves each one is caught.

import (
	"fmt"
	"regexp"
	"testing"

	"shift/internal/attacks"
	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/staticcheck"
	"shift/internal/staticcheck/reach"
	"shift/internal/taint"
	"shift/internal/workload"
)

// stripPCs erases program counters from an alert detail: full and
// selective builds are different instruction streams, so the same
// violation fires at different PCs by construction. Everything else in
// the alert (policy, address, sink data) must still match exactly.
var pcPattern = regexp.MustCompile(`pc=[0-9]+`)

func stripPCs(s string) string { return pcPattern.ReplaceAllString(s, "pc=?") }

// tagDigest hashes the run's region-0 tag bitmap.
func tagDigest(r *shift.Result) uint64 {
	if r.World == nil || r.World.Tags == nil {
		return 0
	}
	return r.World.Tags.Mem.RegionDigest(0)
}

// compareVerdicts checks verdict equivalence between a full and a
// selective run of the same sources. The two programs differ
// instruction-by-instruction, so cycle counts, PCs and machine state are
// out of scope — everything observable about the *verdict* is in:
// trap kind, alert detail, exit status, every output stream, the sink
// logs, and the final tag bitmap.
func compareVerdicts(t *testing.T, label string, ref, got *shift.Result) {
	t.Helper()
	if (ref.Trap == nil) != (got.Trap == nil) {
		t.Fatalf("%s: trap mismatch: full=%v selective=%v", label, ref.Trap, got.Trap)
	}
	if ref.Trap != nil && ref.Trap.Kind != got.Trap.Kind {
		t.Fatalf("%s: trap kind mismatch: full=%v selective=%v", label, ref.Trap, got.Trap)
	}
	if (ref.Alert == nil) != (got.Alert == nil) {
		t.Fatalf("%s: alert mismatch: full=%v selective=%v", label, ref.Alert, got.Alert)
	}
	if ref.Alert != nil && stripPCs(ref.Alert.String()) != stripPCs(got.Alert.String()) {
		t.Fatalf("%s: alert detail mismatch:\n full:      %v\n selective: %v", label, ref.Alert, got.Alert)
	}
	if ref.ExitStatus != got.ExitStatus {
		t.Errorf("%s: exit status: full=%d selective=%d", label, ref.ExitStatus, got.ExitStatus)
	}
	if string(ref.World.Stdout) != string(got.World.Stdout) {
		t.Errorf("%s: stdout differs:\n full:      %q\n selective: %q",
			label, ref.World.Stdout, got.World.Stdout)
	}
	if string(ref.World.NetOut) != string(got.World.NetOut) {
		t.Errorf("%s: network output differs", label)
	}
	if string(ref.World.HTMLOut) != string(got.World.HTMLOut) {
		t.Errorf("%s: html output differs", label)
	}
	if fmt.Sprint(ref.World.SQLLog) != fmt.Sprint(got.World.SQLLog) {
		t.Errorf("%s: SQL log differs", label)
	}
	if fmt.Sprint(ref.World.Opened) != fmt.Sprint(got.World.Opened) {
		t.Errorf("%s: opened-files log differs", label)
	}
	if rd, gd := tagDigest(ref), tagDigest(got); rd != gd {
		t.Errorf("%s: region-0 tag digest differs: full=%#x selective=%#x", label, rd, gd)
	}
}

// fullVsSelective builds the sources fully and selectively instrumented,
// runs the full build under the lockstep oracle (the trusted reference),
// then runs the selective build twice — once under the oracle, once
// under the decoupled tag pipeline — and demands verdict equivalence
// and checker silence every time.
func fullVsSelective(t *testing.T, label string, sources []shift.Source,
	world func() *shift.World, opt shift.Options) (*shift.Result, instrument.Stats) {
	t.Helper()
	opt.Instrument = true

	full, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatalf("%s: full build: %v", label, err)
	}
	var stats instrument.Stats
	sopt := opt
	sopt.Selective = true
	sopt.InstrStats = &stats
	sel, err := shift.Build(sources, sopt)
	if err != nil {
		t.Fatalf("%s: selective build: %v", label, err)
	}
	if len(sel.Text) > len(full.Text) {
		t.Errorf("%s: selective build is larger than full (%d > %d instructions)",
			label, len(sel.Text), len(full.Text))
	}

	opt.Oracle, opt.Decoupled = true, 0
	ref, err := shift.Run(full, world(), opt)
	if err != nil {
		t.Fatalf("%s: full run: %v", label, err)
	}
	gotO, err := shift.Run(sel, world(), opt)
	if err != nil {
		t.Fatalf("%s: selective oracle run: %v", label, err)
	}
	if gotO.Trap != nil && gotO.Trap.Kind == machine.TrapOracle {
		t.Fatalf("%s: oracle diverged on the selective build: %v", label, gotO.Trap)
	}
	compareVerdicts(t, label+"/oracle", ref, gotO)

	opt.Oracle, opt.Decoupled = false, 1
	gotP, err := shift.Run(sel, world(), opt)
	if err != nil {
		t.Fatalf("%s: selective tagpipe run: %v", label, err)
	}
	if gotP.Pipe == nil {
		t.Fatalf("%s: tagpipe run has no pipeline", label)
	}
	if d := gotP.Pipe.Divergence(); d != nil {
		t.Fatalf("%s: tag pipeline diverged on the selective build: %v", label, d)
	}
	compareVerdicts(t, label+"/tagpipe", ref, gotP)
	return ref, stats
}

// TestSelectiveWorkloads sweeps the Figure 7 benchmarks at both
// granularities: selective and full builds must be verdict-equivalent
// under both checkers, and across the suite the analysis must actually
// skip sites (the whole point) without ever skipping everything.
func TestSelectiveWorkloads(t *testing.T) {
	slow := map[string]bool{"vpr": true, "twolf": true, "mcf": true}
	var skipped, kept int
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && slow[b.Name] {
				t.Skip("fixed-iteration kernel; covered by the non-short run")
			}
			sc := b.RefScale / 8
			if sc < 64 {
				sc = 64
			}
			grans := []taint.Granularity{taint.Byte, taint.Word}
			if testing.Short() {
				grans = grans[:1]
			}
			for _, g := range grans {
				conf := b.Config()
				conf.Granularity = g
				label := fmt.Sprintf("%s/%v", b.Name, g)
				sources := []shift.Source{{Name: b.Name + ".mc", Text: b.Source}}
				ref, stats := fullVsSelective(t, label, sources,
					func() *shift.World { return b.World(sc) }, shift.Options{Policy: conf})
				if ref.Trap != nil || ref.Alert != nil {
					t.Fatalf("%s: benchmark not clean: trap=%v alert=%v", label, ref.Trap, ref.Alert)
				}
				if stats.Sites == 0 || stats.Kept == 0 {
					t.Errorf("%s: implausible site accounting: %+v", label, stats)
				}
				skipped += stats.Skipped
				kept += stats.Kept
			}
		})
	}
	if skipped == 0 {
		t.Errorf("selective instrumentation skipped no sites across the whole workload suite")
	}
	t.Logf("suite totals: kept=%d skipped=%d", kept, skipped)
}

// TestSelectiveAttacks runs every Table 2 attack benign and exploit:
// detection verdicts — including alert details — must be identical
// between full and selective builds under both checkers. Zero missed
// detections is the acceptance criterion.
func TestSelectiveAttacks(t *testing.T) {
	grans := []taint.Granularity{taint.Byte, taint.Word}
	if testing.Short() {
		grans = grans[:1]
	}
	for _, a := range attacks.All() {
		a := a
		t.Run(a.Program, func(t *testing.T) {
			for _, gran := range grans {
				conf := a.Config()
				conf.Granularity = gran
				opt := shift.Options{Policy: conf}
				sources := []shift.Source{{Name: a.Program, Text: a.Source}}

				fullVsSelective(t, fmt.Sprintf("benign/%v", gran), sources, a.Benign, opt)
				ref, _ := fullVsSelective(t, fmt.Sprintf("exploit/%v", gran), sources, a.Exploit, opt)
				if ref.Alert == nil && a.Expect != "" {
					t.Errorf("%v: exploit raised no alert (expected %s)", gran, a.Expect)
				}
			}
		})
	}
}

// mutationSource is a program in which taint provably flows through
// every load, store and compare in main's loop body: recv taints buf,
// the loop loads it, copies it, and branches on it. Every kept site in
// main is therefore *dynamically* exercised with tainted data, so an
// injected unsound skip must produce an observable divergence.
const mutationSource = `
char buf[32];
char out[32];
int hits;

void main() {
	int n = recv(buf, 16);
	int i;
	for (i = 0; i < n; i++) {
		int c = buf[i];
		out[i] = c;
		if (c == 'A') {
			hits = hits + 1;
		}
	}
	print_int(hits);
	putc('\n');
	exit(0);
}
`

// mainRange returns main's [start, end) index range in prog: from its
// entry to the next non-local function symbol.
func mainRange(t *testing.T, prog *isa.Program) (int, int) {
	t.Helper()
	start, ok := prog.Symbols["main"]
	if !ok {
		t.Fatal("no main symbol")
	}
	end := len(prog.Text)
	for name, idx := range prog.Symbols {
		if idx > start && idx < end && name[0] != '.' {
			end = idx
		}
	}
	return start, end
}

// TestSelectiveMutationSuite injects unsound skips — dropping the
// instrumentation of one reachable, dynamically tainted site at a time
// — and proves every single one is caught: statically by the contract
// lint (the skip is *not* analysis-sanctioned, so staticcheck flags the
// bare site) and dynamically by the oracle or a verdict divergence.
func TestSelectiveMutationSuite(t *testing.T) {
	conf := policy.DefaultConfig()
	sources := []shift.Source{{Name: "mutation.mc", Text: mutationSource}}
	plain, err := shift.Build(sources, shift.Options{Policy: conf})
	if err != nil {
		t.Fatal(err)
	}
	world := func() *shift.World {
		w := shift.NewWorld()
		w.NetIn = []byte("AABAACADAAEAAFAA")
		return w
	}
	iopt := instrument.Options{Gran: conf.Granularity, Permissive: conf.NoTrack}
	full, err := instrument.Apply(plain, iopt)
	if err != nil {
		t.Fatal(err)
	}
	ropt := shift.Options{Instrument: true, Policy: conf, Oracle: true}
	ref, err := shift.Run(full, world(), ropt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trap != nil || ref.ExitStatus != 0 {
		t.Fatalf("full run not clean: trap=%v exit=%d", ref.Trap, ref.ExitStatus)
	}

	// Candidate sites: every load/store/compare in main that the
	// reachability analysis itself says must stay instrumented.
	ra := reach.Analyze(plain, reach.Config{
		Sources: conf.Sources, Gran: conf.Granularity, Permissive: conf.NoTrack,
	})
	start, end := mainRange(t, plain)
	var candidates []int
	for idx := start; idx < end; idx++ {
		ins := &plain.Text[idx]
		if ins.ABI {
			continue
		}
		keep := false
		switch ins.Op {
		case isa.OpLd, isa.OpLdFill:
			keep = ra.InstrumentLoad(idx)
		case isa.OpSt, isa.OpStSpill, isa.OpCmpxchg:
			keep = ra.InstrumentStore(idx)
		case isa.OpCmp, isa.OpCmpi:
			keep = ra.RelaxCompare(idx)
		}
		if keep {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) < 3 {
		t.Fatalf("implausibly few mutation candidates in main: %d", len(candidates))
	}

	for _, idx := range candidates {
		idx := idx
		t.Run(fmt.Sprintf("skip@%d_%v", idx, plain.Text[idx].Op), func(t *testing.T) {
			mopt := iopt
			mopt.ForceSkip = map[int]bool{idx: true}
			mopt.SkipVerify = true // the gate would (rightly) reject it
			mut, mex, err := instrument.ApplyWithExempt(plain, mopt)
			if err != nil {
				t.Fatal(err)
			}

			// Static net: the bare site must not lint clean without its
			// exemption — the contract checker flags it.
			lintCaught := false
			for _, f := range staticcheck.Check(mut) {
				if mex[f.PC] {
					lintCaught = true
				}
			}

			// Dynamic net: under the oracle the mutated build must trap,
			// or its verdict must visibly diverge from the full build.
			mres, err := shift.Run(mut, world(), ropt)
			if err != nil {
				t.Fatal(err)
			}
			dynCaught := false
			switch {
			case mres.Trap != nil:
				dynCaught = true
			case mres.ExitStatus != ref.ExitStatus:
				dynCaught = true
			case string(mres.World.Stdout) != string(ref.World.Stdout):
				dynCaught = true
			case tagDigest(mres) != tagDigest(ref):
				dynCaught = true
			}

			if !lintCaught && !dynCaught {
				t.Errorf("unsound skip of %v at %d escaped both the contract lint and the run-time checks",
					plain.Text[idx].Op, idx)
			}
			if !lintCaught {
				t.Errorf("contract lint missed the unsanctioned skip at %d", idx)
			}
			if !dynCaught {
				t.Logf("note: skip at %d produced no dynamic divergence on this input (caught by lint)", idx)
			}
		})
	}
}

// TestSelectiveSkipsTaintSparseCode pins the precision side: in a
// program whose taint is confined to one small buffer, the analysis
// must skip the taint-free compute kernel while keeping every site in
// the tainted loop.
func TestSelectiveSkipsTaintSparseCode(t *testing.T) {
	src := `
char buf[16];
int work[64];

void main() {
	int i;
	int acc = 0;
	for (i = 0; i < 64; i++) {
		work[i] = i * 3;
	}
	for (i = 0; i < 64; i++) {
		acc = acc + work[i];
	}
	int n = recv(buf, 8);
	int seen = 0;
	for (i = 0; i < n; i++) {
		if (buf[i] == 'x') {
			seen = seen + 1;
		}
	}
	print_int(acc);
	putc(' ');
	print_int(seen);
	putc('\n');
	exit(0);
}
`
	conf := policy.DefaultConfig()
	var stats instrument.Stats
	opt := shift.Options{Instrument: true, Policy: conf, Selective: true, InstrStats: &stats}
	prog, err := shift.Build([]shift.Source{{Name: "sparse.mc", Text: src}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped == 0 {
		t.Fatalf("taint-sparse program had no skipped sites: %+v", stats)
	}
	if stats.Kept == 0 {
		t.Fatalf("tainted loop lost its instrumentation: %+v", stats)
	}
	t.Logf("taint-sparse accounting: %+v", stats)

	w := shift.NewWorld()
	w.NetIn = []byte("axbxcxdx")
	opt.Oracle = true
	res, err := shift.Run(prog, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil || res.ExitStatus != 0 {
		t.Fatalf("sparse run not clean: trap=%v exit=%d", res.Trap, res.ExitStatus)
	}
	if got := string(res.World.Stdout); got != "6048 4\n" {
		t.Errorf("stdout = %q, want %q", got, "6048 4\n")
	}
}
