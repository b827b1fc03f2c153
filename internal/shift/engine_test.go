package shift_test

// Differential engine suite (the block engine's acceptance harness):
// every evaluation workload and every Table 2 attack runs under both the
// reference interpreter and the translated-block engine, and the two
// runs must agree on every observable — traps, alerts, program output,
// exit status, cycle accounting, register NaT state, and the taint
// bitmap. The interpreter is the ground truth; any divergence is a block
// engine bug by definition (see DESIGN.md).

import (
	"fmt"
	"testing"

	"shift/internal/attacks"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// tagSpan is how much of each data region the taint-bitmap comparison
// covers. The guests here keep data and heap well inside it.
const tagSpan = 1 << 20

// compareResults asserts two runs of the same program are observably
// identical.
func compareResults(t *testing.T, label string, ref, got *shift.Result) {
	t.Helper()
	if (ref.Trap == nil) != (got.Trap == nil) {
		t.Fatalf("%s: trap mismatch: interp=%v block=%v", label, ref.Trap, got.Trap)
	}
	if ref.Trap != nil && (ref.Trap.Kind != got.Trap.Kind || ref.Trap.PC != got.Trap.PC) {
		t.Fatalf("%s: trap detail mismatch: interp=%+v block=%+v", label, ref.Trap, got.Trap)
	}
	if (ref.Alert == nil) != (got.Alert == nil) {
		t.Fatalf("%s: alert mismatch: interp=%v block=%v", label, ref.Alert, got.Alert)
	}
	if ref.Alert != nil && ref.Alert.String() != got.Alert.String() {
		t.Fatalf("%s: alert detail mismatch:\n interp: %v\n block:  %v", label, ref.Alert, got.Alert)
	}
	if ref.ExitStatus != got.ExitStatus {
		t.Errorf("%s: exit status: interp=%d block=%d", label, ref.ExitStatus, got.ExitStatus)
	}
	if string(ref.World.Stdout) != string(got.World.Stdout) {
		t.Errorf("%s: stdout differs", label)
	}
	if string(ref.World.NetOut) != string(got.World.NetOut) {
		t.Errorf("%s: network output differs", label)
	}
	if string(ref.World.HTMLOut) != string(got.World.HTMLOut) {
		t.Errorf("%s: html output differs", label)
	}
	if ref.Cycles != got.Cycles || ref.Retired != got.Retired {
		t.Errorf("%s: counters: interp=(%d,%d) block=(%d,%d)",
			label, ref.Cycles, ref.Retired, got.Cycles, got.Retired)
	}
	if ref.CyclesByClass != got.CyclesByClass {
		t.Errorf("%s: CyclesByClass: interp=%v block=%v", label, ref.CyclesByClass, got.CyclesByClass)
	}
	if ref.Machine != nil && got.Machine != nil {
		if ref.Machine.NaT != got.Machine.NaT {
			t.Errorf("%s: register NaT state differs", label)
		}
		if ref.Machine.GR != got.Machine.GR {
			t.Errorf("%s: general registers differ", label)
		}
		if ref.Machine.PC != got.Machine.PC {
			t.Errorf("%s: PC: interp=%d block=%d", label, ref.Machine.PC, got.Machine.PC)
		}
	}
	compareTags(t, label, ref, got)
}

// compareTags counts tainted units across the guest data and heap
// regions in both runs and requires identical totals.
func compareTags(t *testing.T, label string, ref, got *shift.Result) {
	t.Helper()
	if (ref.World.Tags == nil) != (got.World.Tags == nil) {
		t.Fatalf("%s: one run has a tag space, the other does not", label)
	}
	if ref.World.Tags == nil {
		return
	}
	for _, region := range []uint64{1, 2} {
		addr := mem.Addr(region, 0)
		a, err := ref.World.Tags.CountTainted(addr, tagSpan)
		if err != nil {
			t.Fatalf("%s: counting interp tags: %v", label, err)
		}
		b, err := got.World.Tags.CountTainted(addr, tagSpan)
		if err != nil {
			t.Fatalf("%s: counting block tags: %v", label, err)
		}
		if a != b {
			t.Errorf("%s: region %d taint bitmap differs: interp=%d block=%d units", label, region, a, b)
		}
	}
}

// bothEngines runs the same build under the interpreter and the block
// engine with fresh worlds and returns both results.
func bothEngines(t *testing.T, label string, sources []shift.Source,
	world func() *shift.World, opt shift.Options) (*shift.Result, *shift.Result) {
	t.Helper()
	prog, err := shift.Build(sources, opt)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	opt.Engine = machine.EngineInterp
	ref, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: interp run: %v", label, err)
	}
	opt.Engine = machine.EngineBlock
	got, err := shift.Run(prog, world(), opt)
	if err != nil {
		t.Fatalf("%s: block run: %v", label, err)
	}
	return ref, got
}

// TestEngineDifferentialWorkloads sweeps the Figure 7 benchmarks through
// both engines, uninstrumented and instrumented at both granularities.
func TestEngineDifferentialWorkloads(t *testing.T) {
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
	// The fixed-iteration kernels dominate -short (-race CI) runtime;
	// the full matrix covers them in the regular suite.
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
				ref, got := bothEngines(t, m.name, sources,
					func() *shift.World { return b.World(sc) }, m.opt(b))
				if ref.Trap != nil || ref.Alert != nil {
					t.Fatalf("%s: benchmark not clean: trap=%v alert=%v", m.name, ref.Trap, ref.Alert)
				}
				compareResults(t, b.Name+"/"+m.name, ref, got)
			}
		})
	}
}

// TestEngineDifferentialAttacks runs every Table 2 attack's benign and
// exploit inputs under both engines at both granularities: detections,
// alerts and outputs must be engine-independent.
func TestEngineDifferentialAttacks(t *testing.T) {
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

				ref, got := bothEngines(t, "benign", sources, a.Benign, opt)
				compareResults(t, fmt.Sprintf("%s/benign/%v", a.Program, gran), ref, got)

				ref, got = bothEngines(t, "exploit", sources, a.Exploit, opt)
				compareResults(t, fmt.Sprintf("%s/exploit/%v", a.Program, gran), ref, got)
				if ref.Alert == nil && a.Expect != "" {
					t.Errorf("%v: exploit raised no alert (expected %s)", gran, a.Expect)
				}
			}
		})
	}
}

// TestEngineDifferentialThreads exercises quantum expiry inside and at
// translated-block boundaries: threaded guests under small quanta must
// schedule identically on both engines (the block engine's per-op
// preemption check mirrors the interpreter's tag-coherent slice ends).
// The -race CI stage runs this too, covering threads that share their
// program's translation cache.
func TestEngineDifferentialThreads(t *testing.T) {
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
			ref, got := bothEngines(t, label, sources, shift.NewWorld, opt)
			if ref.Trap != nil || ref.ExitStatus != 0 {
				t.Fatalf("%s: interp run not clean: trap=%v exit=%d", label, ref.Trap, ref.ExitStatus)
			}
			compareResults(t, label, ref, got)
		}
	}
}
