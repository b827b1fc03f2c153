// Package bench is the experiment harness: one function per table or
// figure in the paper's evaluation (§5–§6), each returning structured
// results and able to print itself in the paper's row format. The
// cmd/shiftbench binary and the repository's Go benchmarks are thin
// wrappers over this package.
package bench

import (
	"fmt"
	"math"

	"shift/internal/machine"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// Engine selects the execution engine for every benchmark run in this
// package (cmd/shiftbench's -engine flag sets it). The default is the
// translated-block engine; the results are engine-independent — the
// engines are bit-identical in every architectural observable — so the
// knob exists for performance comparison and differential testing.
var Engine machine.Engine

// Tagpipe runs instrumented benchmark runs under the decoupled tag
// pipeline (cmd/shiftbench's -tagpipe flag). False — the default — keeps
// checking inline; true moves shadow propagation onto an asynchronous
// committer draining at sinks, which changes throughput but not verdicts
// (see DESIGN.md "Decoupled tag pipeline").
var Tagpipe bool

// Selective makes every instrumented benchmark run use selective
// instrumentation (cmd/shiftbench's -selective flag): the whole-program
// taint-reachability analysis keeps only sites that may touch taint.
// Verdict-equivalent to full instrumentation; changes cycle counts only.
var Selective bool

// Config is one measurement configuration of the SHIFT system.
type Config struct {
	Key  string
	Gran taint.Granularity
	Feat machine.Features
	// Safe disables taint sources: the instrumentation still runs but
	// no data is ever tainted (the paper's "-safe" bars in Figure 7).
	Safe bool
	// NaTPerFunction and NaTPerUse select the §4.4 ablation variants.
	NaTPerFunction bool
	NaTPerUse      bool
	// Optimize enables the §4.4/§6.4 future-work compiler optimizations.
	Optimize bool
}

// Standard configurations.
var (
	ByteUnsafe  = Config{Key: "byte-unsafe", Gran: taint.Byte}
	ByteSafe    = Config{Key: "byte-safe", Gran: taint.Byte, Safe: true}
	WordUnsafe  = Config{Key: "word-unsafe", Gran: taint.Word}
	WordSafe    = Config{Key: "word-safe", Gran: taint.Word, Safe: true}
	ByteSetClr  = Config{Key: "byte-set/clear", Gran: taint.Byte, Feat: machine.Features{SetClrNaT: true}}
	ByteBoth    = Config{Key: "byte-both", Gran: taint.Byte, Feat: machine.Features{SetClrNaT: true, NaTAwareCmp: true}}
	WordSetClr  = Config{Key: "word-set/clear", Gran: taint.Word, Feat: machine.Features{SetClrNaT: true}}
	WordBoth    = Config{Key: "word-both", Gran: taint.Word, Feat: machine.Features{SetClrNaT: true, NaTAwareCmp: true}}
	BytePerFunc = Config{Key: "byte-nat-per-function", Gran: taint.Byte, NaTPerFunction: true}
	BytePerUse  = Config{Key: "byte-nat-per-use", Gran: taint.Byte, NaTPerUse: true}
	ByteOpt     = Config{Key: "byte-optimized", Gran: taint.Byte, Optimize: true}
	WordOpt     = Config{Key: "word-optimized", Gran: taint.Word, Optimize: true}
)

// options converts a configuration into run options for a benchmark.
func (c Config) options(b *workload.Benchmark) shift.Options {
	conf := b.Config()
	conf.Granularity = c.Gran
	if c.Safe {
		conf.Sources = map[string]bool{}
	}
	return shift.Options{
		Instrument:     true,
		Policy:         conf,
		Features:       c.Feat,
		NaTPerFunction: c.NaTPerFunction,
		NaTPerUse:      c.NaTPerUse,
		Optimize:       c.Optimize,
	}
}

// Measurement is one benchmark run.
type Measurement struct {
	Cycles  uint64
	Retired uint64
	ByClass []uint64 // indexed by isa.CostClass
	Stdout  string
}

// RunBenchmark executes b at the given scale under cfg (or the baseline
// when cfg is nil) and verifies the run was clean.
func RunBenchmark(b *workload.Benchmark, scale int, cfg *Config) (*Measurement, error) {
	var opt shift.Options
	if cfg != nil {
		opt = cfg.options(b)
	}
	opt.Engine = Engine
	if opt.Instrument {
		if Tagpipe {
			opt.Decoupled = 1
		}
		opt.Selective = Selective
	}
	res, err := shift.BuildAndRun(
		[]shift.Source{{Name: b.Name + ".mc", Text: b.Source}}, b.World(scale), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if res.Trap != nil {
		return nil, fmt.Errorf("%s: trap: %v", b.Name, res.Trap)
	}
	if res.Alert != nil {
		return nil, fmt.Errorf("%s: unexpected alert: %v", b.Name, res.Alert)
	}
	if res.ExitStatus != 0 {
		return nil, fmt.Errorf("%s: exit %d (stdout %q)", b.Name, res.ExitStatus, res.World.Stdout)
	}
	byClass := make([]uint64, len(res.CyclesByClass))
	copy(byClass, res.CyclesByClass[:])
	return &Measurement{
		Cycles:  res.Cycles,
		Retired: res.Retired,
		ByClass: byClass,
		Stdout:  string(res.World.Stdout),
	}, nil
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
