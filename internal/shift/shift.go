// Package shift is the public façade of the SHIFT reproduction: build a
// minic program with or without taint instrumentation, run it under a
// policy engine, and collect performance accounting and security alerts.
//
// The division of labour follows the paper's thesis (§3): the machine and
// instrumentation provide the *mechanism* (NaT-bit propagation in
// registers, a bitmap in memory), while policies are pure software — a
// configuration of taint sources and sink checks that can change without
// touching the tracking machinery.
package shift

import (
	"fmt"

	"shift/internal/asm"
	"shift/internal/codegen"
	"shift/internal/forensics"
	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/lang"
	"shift/internal/loader"
	"shift/internal/machine"
	"shift/internal/metrics"
	"shift/internal/oracle"
	"shift/internal/policy"
	"shift/internal/rtlib"
	"shift/internal/tagpipe"
	"shift/internal/taint"
	"shift/internal/trace"
)

// Source is one minic translation unit.
type Source struct {
	Name string
	Text string
}

// Options selects how a program is built and run.
type Options struct {
	// Instrument enables the SHIFT pass; false builds the baseline.
	Instrument bool
	// Granularity is byte- or word-level tracking (default byte).
	Granularity taint.Granularity
	// Features enables the paper's proposed enhancement instructions on
	// both the pass and the machine.
	Features machine.Features
	// Policy configures sources, sinks and granularity overrides; nil
	// uses policy.DefaultConfig when instrumenting.
	Policy *policy.Config
	// NaTPerFunction selects the §4.4 ablation (regenerate the NaT
	// source at every function entry).
	NaTPerFunction bool
	// NaTPerUse regenerates the NaT source at every tainting site
	// (the ablation's expensive extreme).
	NaTPerUse bool
	// Optimize enables the §4.4/§6.4 future-work compiler
	// optimizations (kept mask register, tag-address reuse).
	Optimize bool
	// UserGuards inserts §3.3.3 chk.s checks before critical uses so
	// violations are handled at user level instead of by a hardware
	// fault.
	UserGuards bool
	// SerializedTags makes byte-level bitmap updates atomic via a
	// cmpxchg retry loop, closing the §4.4 multi-threading hazard.
	SerializedTags bool
	// UnsafePreempt lets the scheduler end a time slice between a data
	// store and its tag update (machine.Machine.UnsafePreempt), exposing
	// the §4.4 bitmap hazard the default tag-coherent scheduling closes.
	// With Oracle set, the strong cross-checks stand down at the first
	// spawn in this mode, as they would otherwise flag the hazard itself.
	UnsafePreempt bool
	// NoRuntime skips linking the runtime library (for tests that
	// provide their own primitives).
	NoRuntime bool
	// Budget bounds retired instructions (0 = machine default).
	Budget uint64
	// Quantum is the scheduler time slice in cycles for multi-threaded
	// guests (0 = machine.DefaultQuantum). Single-threaded programs are
	// unaffected.
	Quantum uint64
	// Profile counts retirements per instruction on the main thread
	// (inspect via Result.Machine.Hotspots / FunctionProfile).
	Profile bool
	// Oracle runs a lockstep reference DIFT engine alongside execution,
	// cross-checking register NaT bits and the tag bitmap against plain
	// shadow-taint interpretation. A disagreement stops the run with a
	// TrapOracle carrying a full divergence report (Result.Trap).
	Oracle bool
	// Decoupled, when non-zero, enables the decoupled tag pipeline: each
	// retired instruction is recorded into a batched retirement log,
	// applied to shadow tag state when the batch fills and at every
	// policy sink before its verdict. Verdicts are equivalent to the
	// inline oracle's; the strong cross-checks run at sink granularity
	// instead of at every original-instruction boundary (see DESIGN.md
	// "Decoupled tag pipeline"). Composable with Oracle for differential
	// testing.
	Decoupled int
	// Costs overrides the cycle cost model (nil = machine defaults).
	Costs *machine.Costs
	// Engine selects the execution engine for unhooked runs: the
	// translated-block engine (default) or the reference interpreter.
	// Checked (Oracle, Decoupled), traced, metered and profiled runs
	// attach a StepHook or a profile and always interpret, whatever
	// Engine says. The engines are bit-identical in every architectural
	// observable; interp exists as the oracle's ground truth and for
	// differential testing.
	Engine machine.Engine
	// Trace, when non-nil, records taint-lifecycle events into the given
	// flight recorder: both the OS-boundary events (taint birth, policy
	// checks, violations, spawns) and the per-retirement propagation
	// events a machine hook derives (spec-load defers, NaT sets, tag-
	// bitmap writes, chk.s recoveries, slices, syscall latency).
	Trace *trace.Tracer
	// Metrics, when non-nil, receives the run's aggregate instruments
	// (tag-op counts, TLB/cache hit rates, slice occupancy, syscall
	// latency histograms). Independent of Trace; either may be set alone.
	Metrics *metrics.Registry
	// Selective makes the instrumentation pass run the whole-program
	// taint-reachability analysis (internal/staticcheck/reach) and leave
	// provably taint-unreachable sites uninstrumented. The analysis'
	// taint seeds follow the policy's Sources channels, so a selective
	// build is specific to its policy configuration.
	Selective bool
	// InstrStats, when non-nil, receives the instrumentation pass' site
	// accounting (total / kept / skipped) from Build.
	InstrStats *instrument.Stats
}

// Build parses, checks, compiles and (optionally) instruments sources
// together with the runtime library.
func Build(sources []Source, opt Options) (*isa.Program, error) {
	var files []*lang.File
	if !opt.NoRuntime {
		rt, err := lang.Parse("rtlib.mc", rtlib.Source)
		if err != nil {
			return nil, fmt.Errorf("shift: runtime library: %w", err)
		}
		files = append(files, rt)
	}
	for _, s := range sources {
		f, err := lang.Parse(s.Name, s.Text)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	unit, err := lang.Check(files...)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(unit)
	if err != nil {
		return nil, err
	}
	return instrumentProg(prog, opt)
}

// BuildAsm assembles one hand-written assembly unit and (optionally)
// instruments it under the same options as Build. It exists for
// scenarios written below minic's level — the attack corpus'
// speculative-leak gadget needs ld.s/chk.s sequences minic never emits.
func BuildAsm(name, text string, opt Options) (*isa.Program, error) {
	prog, err := asm.Assemble(text, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("shift: %s: %w", name, err)
	}
	return instrumentProg(prog, opt)
}

// ResolvePolicy returns the policy in force — Policy, or
// policy.DefaultConfig when nil — and the tracking granularity: the
// policy's when Policy is set, Granularity otherwise.
func (opt Options) ResolvePolicy() (*policy.Config, taint.Granularity) {
	if opt.Policy != nil {
		return opt.Policy, opt.Policy.Granularity
	}
	return policy.DefaultConfig(), opt.Granularity
}

// instrumentProg applies the SHIFT pass per the run options (the shared
// tail of Build and BuildAsm).
func instrumentProg(prog *isa.Program, opt Options) (*isa.Program, error) {
	if !opt.Instrument {
		return prog, nil
	}
	return instrument.Apply(prog, opt.InstrumentOptions())
}

// InstrumentOptions maps the run options onto the instrumentation pass'
// options: the one mapping Build uses, exported for tools (shiftlint)
// that drive the pass themselves.
func (opt Options) InstrumentOptions() instrument.Options {
	conf, gran := opt.ResolvePolicy()
	return instrument.Options{
		Gran:             gran,
		Feat:             opt.Features,
		NaTPerFunction:   opt.NaTPerFunction,
		NaTPerUse:        opt.NaTPerUse,
		Optimize:         opt.Optimize,
		UserGuards:       opt.UserGuards,
		SerializedTags:   opt.SerializedTags,
		Permissive:       conf.NoTrack,
		Selective:        opt.Selective,
		SelectiveSources: conf.Sources,
		Stats:            opt.InstrStats,
	}
}

// Alert is a detected policy violation.
type Alert struct {
	Violation *policy.Violation
	Trap      *machine.Trap // underlying hardware fault, if any
}

// String renders the alert.
func (a *Alert) String() string {
	if a.Violation != nil {
		return a.Violation.Error()
	}
	return a.Trap.Error()
}

// Result collects everything a run produced.
type Result struct {
	ExitStatus int64
	Alert      *Alert        // non-nil when a policy violation stopped the run
	Trap       *machine.Trap // non-nil on a non-policy trap (a real bug)

	Cycles        uint64
	CyclesByClass [isa.NumCostClasses]uint64
	Retired       uint64
	World         *World
	Machine       *machine.Machine
	// Oracle is the lockstep checker when Options.Oracle was set; its
	// Divergence() and Stats report what was cross-checked.
	Oracle *oracle.Oracle
	// Pipe is the decoupled tag pipeline when Options.Decoupled was set;
	// its Divergence() and Stats report what was propagated and checked.
	Pipe *tagpipe.Pipeline
	// Trace is the flight recorder when Options.Trace was set.
	Trace *trace.Tracer
}

// Report assembles the forensic incident bundle for the run's alert:
// attack signature, token provenance against the world's input channels,
// and the flight recorder's tail when the run was traced. Nil when the
// run raised no alert.
func (r *Result) Report() *forensics.Report {
	if r.Alert == nil || r.Alert.Violation == nil {
		return nil
	}
	w := r.World
	return forensics.BuildReport(r.Alert.Violation, forensics.Channels{
		Network: w.NetIn,
		Stdin:   w.Stdin,
		Args:    w.Args,
		Files:   w.Files,
	}, r.Trace, 0)
}

// Run loads and executes a program against a world. When opt.Instrument
// is set the world is wired with a tag space and policy engine; taints
// flow from the world's sources and violations surface as alerts.
func Run(prog *isa.Program, world *World, opt Options) (*Result, error) {
	img, err := loader.Load(prog)
	if err != nil {
		return nil, err
	}
	if world == nil {
		world = NewWorld()
	}
	world.HeapBase = img.HeapBase
	world.StackTop = img.StackTop
	return RunOn(img.NewMachine(), world, opt)
}

// RunOn executes world on an already-constructed machine: the full Run
// wiring — tag space, policy engine, oracle, decoupled tag pipeline,
// observability hooks, scheduler — applied to a machine the caller
// built. This is the reuse seam for pooled guests (internal/pool):
// a recycled machine restored from a snapshot re-enters here for each
// request instead of paying loader.Load again. The caller owns the
// pieces Run normally derives from the loader image: world.HeapBase
// and world.StackTop must be set, and a pre-created world.Tags /
// world.Engine are kept (so a pool can Clear one tag space across
// runs); when nil and opt.Instrument is set, fresh ones are created
// over mach.Mem.
func RunOn(mach *machine.Machine, world *World, opt Options) (*Result, error) {
	if world == nil {
		world = NewWorld()
	}
	if opt.Instrument {
		conf, gran := opt.ResolvePolicy()
		if world.Tags == nil {
			world.Tags = taint.NewSpace(mach.Mem, gran)
		}
		if world.Engine == nil {
			world.Engine = policy.NewEngine(conf)
		}
	}

	mach.OS = world
	mach.Engine = opt.Engine
	mach.Feat = opt.Features
	mach.Budget = opt.Budget
	mach.UnsafePreempt = opt.UnsafePreempt
	if opt.Profile {
		mach.EnableProfile()
	}
	if opt.Costs != nil {
		mach.Costs = *opt.Costs
	}

	var orc *oracle.Oracle
	if opt.Oracle {
		orc = oracle.New(oracle.Config{Tags: world.Tags, Instrumented: opt.Instrument, UnsafePreempt: opt.UnsafePreempt})
		orc.Attach(mach)
		world.Effects = orc
	}

	// The decoupled tag pipeline rides the same seams as the oracle: the
	// StepHook retirement stream feeds its record batch, and the
	// host-effect notifications become its sink drains. With both engines
	// requested the oracle hooks first, keeping its at-the-instruction
	// abort semantics; the pipeline then sees exactly the same stream.
	var pipe *tagpipe.Pipeline
	if opt.Decoupled != 0 {
		pipe = tagpipe.New(tagpipe.Config{
			Tags:          world.Tags,
			Instrumented:  opt.Instrument,
			UnsafePreempt: opt.UnsafePreempt,
		})
		defer pipe.Close()
		if mach.Hook != nil {
			mach.Hook = machine.MultiHook{mach.Hook, pipe}
		} else {
			pipe.Attach(mach)
		}
		if world.Effects != nil {
			world.Effects = multiEffects{world.Effects, pipe}
		} else {
			world.Effects = pipe
		}
	}

	// Observability rides the same StepHook seam as the oracle; with both
	// requested, MultiHook fans the retirement stream out (oracle first,
	// so its abort-on-divergence semantics are unchanged).
	var obs *trace.MachineHook
	if opt.Trace != nil || opt.Metrics != nil {
		obs = trace.NewMachineHook(opt.Trace, opt.Metrics)
		if mach.Hook != nil {
			mach.Hook = machine.MultiHook{mach.Hook, obs}
		} else {
			mach.Hook = obs
		}
		world.Trace = opt.Trace
	}
	if opt.Metrics != nil && pipe != nil {
		s := &pipe.Stats
		opt.Metrics.GaugeFunc("shift_tagpipe_records_total", func() uint64 { return s.Records.Load() })
		opt.Metrics.GaugeFunc("shift_tagpipe_segments_total", func() uint64 { return s.Segments.Load() })
		opt.Metrics.GaugeFunc("shift_tagpipe_drains_total", func() uint64 { return s.Drains.Load() })
	}
	if opt.Metrics != nil {
		m := mach.Mem
		opt.Metrics.GaugeFunc("shift_tlb_hits", func() uint64 { h, _ := m.TLBStats(); return h })
		opt.Metrics.GaugeFunc("shift_tlb_misses", func() uint64 { _, ms := m.TLBStats(); return ms })
		if c := m.Cache; c != nil {
			opt.Metrics.GaugeFunc("shift_cache_hits", func() uint64 { return c.Hits })
			opt.Metrics.GaugeFunc("shift_cache_misses", func() uint64 { return c.Misses })
		}
	}

	sched := machine.NewScheduler(mach)
	sched.Quantum = opt.Quantum
	world.Sched = sched

	trap := sched.Run()
	if obs != nil {
		obs.Flush()
	}
	if trap == nil && orc != nil {
		// The run halted cleanly: the final state must still agree.
		if err := orc.Finish(mach); err != nil {
			trap = &machine.Trap{Kind: machine.TrapOracle, PC: mach.PC, Ins: "<finish>", Err: err}
		}
	}
	if trap == nil && pipe != nil {
		// Same final agreement for the decoupled engine: apply the batch
		// and run the closing register/bitmap sweeps.
		if err := pipe.Finish(mach); err != nil {
			trap = &machine.Trap{Kind: machine.TrapOracle, PC: mach.PC, Ins: "<finish>", Err: err}
		}
	}
	res := &Result{
		ExitStatus: mach.ExitStatus,
		Cycles:     sched.TotalCycles(),
		Retired:    sched.TotalRetired(),
		World:      world,
		Machine:    mach,
		Oracle:     orc,
		Pipe:       pipe,
		Trace:      opt.Trace,
	}
	for _, th := range sched.Threads {
		for i, c := range th.CyclesByClass {
			res.CyclesByClass[i] += c
		}
	}
	if trap == nil {
		return res, nil
	}

	// Policy violations come back two ways: sink checks raise a host
	// trap wrapping a Violation; NaT-consumption faults classify via the
	// engine (L1–L3).
	if v, ok := trap.Err.(*policy.Violation); ok {
		res.Alert = &Alert{Violation: v, Trap: trap}
		return res, nil
	}
	if trap.Kind.IsNaTConsumption() && world.Engine != nil {
		if v := world.Engine.ClassifyTrap(trap, world.liveChannels()); v != nil {
			// Hardware-detected (L1–L3) violations bypass the syscall
			// sink path, so the trace event is recorded here.
			opt.Trace.Emit(trace.Event{Cycle: mach.Cycles, TID: mach.TID, PC: trap.PC, Kind: trace.KindViolation, Name: v.Policy})
			res.Alert = &Alert{Violation: v, Trap: trap}
			return res, nil
		}
	}
	res.Trap = trap
	return res, nil
}

// BuildAndRun is the one-call convenience used by examples and tests.
func BuildAndRun(sources []Source, world *World, opt Options) (*Result, error) {
	if opt.Selective && opt.Metrics != nil && opt.InstrStats == nil {
		opt.InstrStats = new(instrument.Stats)
	}
	prog, err := Build(sources, opt)
	if err != nil {
		return nil, err
	}
	if opt.Selective && opt.Metrics != nil {
		RegisterSelectiveMetrics(opt.Metrics, opt.InstrStats)
	}
	return Run(prog, world, opt)
}

// RegisterSelectiveMetrics publishes a selective build's site accounting
// on reg: shift_selective_sites_kept / shift_selective_sites_skipped.
func RegisterSelectiveMetrics(reg *metrics.Registry, st *instrument.Stats) {
	if reg == nil || st == nil {
		return
	}
	reg.Gauge("shift_selective_sites_kept").Set(uint64(st.Kept))
	reg.Gauge("shift_selective_sites_skipped").Set(uint64(st.Skipped))
}
