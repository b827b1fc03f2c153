package shift_test

// Differential suite for the decoupled tag pipeline: every workload,
// attack and threaded schedule runs once under the inline lockstep
// oracle and once under the batched, sink-checked pipeline, and the two
// runs must agree on every observable — traps, alerts, output, exit
// status, cycle accounting, machine state, and the taint bitmap. Verdict
// equivalence is the pipeline's acceptance criterion (DESIGN.md
// "Decoupled tag pipeline"); the -race CI stage runs this file too.

import (
	"fmt"
	"testing"

	"shift/internal/attacks"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// inlineVsDecoupled runs the same build under the inline oracle and
// under the decoupled pipeline with fresh worlds.
func inlineVsDecoupled(t *testing.T, label string, sources []shift.Source,
	world func() *shift.World, opt shift.Options) (*shift.Result, *shift.Result) {
	t.Helper()
	prog, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	opt.Oracle, opt.Decoupled = true, 0
	ref, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: inline-oracle run: %v", label, err)
	}
	opt.Oracle, opt.Decoupled = false, 1
	got, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: decoupled run: %v", label, err)
	}
	if got.Pipe == nil {
		t.Fatalf("%s: decoupled run has no pipeline", label)
	}
	if got.Pipe.Stats.Records.Load() == 0 {
		t.Fatalf("%s: pipeline idle: no retirement records flowed", label)
	}
	return ref, got
}

// TestDecoupledWorkloads sweeps the Figure 7 benchmarks: inline and
// decoupled verdicts and observables must agree in every mode.
func TestDecoupledWorkloads(t *testing.T) {
	modes := []struct {
		name string
		opt  func(b *workload.Benchmark) shift.Options
	}{
		{"base", func(b *workload.Benchmark) shift.Options {
			return shift.Options{Policy: b.Config()}
		}},
		{"byte", func(b *workload.Benchmark) shift.Options {
			conf := b.Config()
			conf.Granularity = taint.Byte
			return shift.Options{Instrument: true, Policy: conf}
		}},
		{"word", func(b *workload.Benchmark) shift.Options {
			conf := b.Config()
			conf.Granularity = taint.Word
			return shift.Options{Instrument: true, Policy: conf}
		}},
	}
	slow := map[string]bool{"vpr": true, "twolf": true, "mcf": true}
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
			for _, m := range modes {
				sources := []shift.Source{{Name: b.Name + ".mc", Text: b.Source}}
				label := b.Name + "/" + m.name
				ref, got := inlineVsDecoupled(t, label, sources,
					func() *shift.World { return b.World(sc) }, m.opt(b))
				if ref.Trap != nil || ref.Alert != nil {
					t.Fatalf("%s: benchmark not clean: trap=%v alert=%v", label, ref.Trap, ref.Alert)
				}
				compareResults(t, label, ref, got)
				if m.name != "base" && got.Pipe.Stats.Sweeps.Load() == 0 {
					t.Errorf("%s: no sink sweeps ran in an instrumented run", label)
				}
			}
		})
	}
}

// TestDecoupledAttacks runs every Table 2 attack's benign and exploit
// inputs: detections and alert details must be identical between the
// inline oracle and the pipeline at both granularities.
func TestDecoupledAttacks(t *testing.T) {
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
				opt := shift.Options{Instrument: true, Policy: conf}
				sources := []shift.Source{{Name: a.Program, Text: a.Source}}

				ref, got := inlineVsDecoupled(t, "benign", sources, a.Benign, opt)
				compareResults(t, fmt.Sprintf("%s/benign/%v", a.Program, gran), ref, got)

				ref, got = inlineVsDecoupled(t, "exploit", sources, a.Exploit, opt)
				compareResults(t, fmt.Sprintf("%s/exploit/%v", a.Program, gran), ref, got)
				if ref.Alert == nil && a.Expect != "" {
					t.Errorf("%v: exploit raised no alert (expected %s)", gran, a.Expect)
				}
			}
		})
	}
}

// TestDecoupledThreads drives the threaded schedule grid: multithreaded
// guests under small quanta, instrumented and not, plus the
// UnsafePreempt stand-down — all must be verdict-identical.
func TestDecoupledThreads(t *testing.T) {
	src := `
char log[128];
int pos;
int done[4];

int worker(int id) {
	int i;
	int acc = 0;
	for (i = 0; i < 12; i++) {
		log[pos] = 'a' + id;
		pos++;
		acc += i * id;
		yield();
	}
	done[id] = acc;
	return acc;
}

void main() {
	int t1 = spawn("worker", 1);
	int t2 = spawn("worker", 2);
	int t3 = spawn("worker", 3);
	if (t1 < 0 || t2 < 0 || t3 < 0) exit(9);
	join(t1);
	join(t2);
	join(t3);
	log[pos] = 0;
	print_str(log);
	print_int(done[1] + done[2] + done[3]);
	putc('\n');
	exit(0);
}
`
	for _, quantum := range []uint64{1, 7, 23, 50} {
		for _, instrument := range []bool{false, true} {
			label := fmt.Sprintf("q=%d/instrument=%v", quantum, instrument)
			opt := shift.Options{Instrument: instrument, Quantum: quantum}
			sources := []shift.Source{{Name: "threads.mc", Text: src}}
			ref, got := inlineVsDecoupled(t, label, sources, shift.NewWorld, opt)
			if ref.Trap != nil || ref.ExitStatus != 0 {
				t.Fatalf("%s: inline run not clean: trap=%v exit=%d", label, ref.Trap, ref.ExitStatus)
			}
			compareResults(t, label, ref, got)
		}
	}
	// UnsafePreempt: both checkers stand their strong checks down at the
	// first spawn; the runs must still agree on all observables.
	opt := shift.Options{Instrument: true, Quantum: 7, UnsafePreempt: true}
	sources := []shift.Source{{Name: "threads.mc", Text: src}}
	ref, got := inlineVsDecoupled(t, "unsafe-preempt", sources, shift.NewWorld, opt)
	compareResults(t, "unsafe-preempt", ref, got)
}

// TestDecoupledComposesWithOracle runs both checkers in the same run:
// the oracle hooks first (inline abort semantics), the pipeline rides
// behind over the same stream and host effects fan out to both. A clean
// workload must stay clean and agree with the oracle-only run.
func TestDecoupledComposesWithOracle(t *testing.T) {
	b := workload.All()[0]
	sc := b.RefScale / 8
	if sc < 64 {
		sc = 64
	}
	conf := b.Config()
	conf.Granularity = taint.Byte
	opt := shift.Options{Instrument: true, Policy: conf, Oracle: true}
	sources := []shift.Source{{Name: b.Name + ".mc", Text: b.Source}}
	prog, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shift.Run(prog, b.World(sc), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Decoupled = 1
	got, err := shift.Run(prog, b.World(sc), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Oracle == nil || got.Pipe == nil {
		t.Fatal("combined run missing a checker")
	}
	compareResults(t, "oracle+pipe", ref, got)
	if got.Pipe.Divergence() != nil {
		t.Fatalf("pipeline diverged where the oracle did not: %v", got.Pipe.Divergence())
	}
}
