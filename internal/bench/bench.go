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

// Harness is the experiment harness' run configuration. It is passed
// explicitly (cmd/shiftbench builds one from its flags); the zero value
// is the default: block engine, inline checking, full instrumentation,
// one worker per CPU.
type Harness struct {
	// Base holds the execution settings every measured benchmark run
	// (RunBenchmark, and so Figures 7–9 and the ablations) starts from:
	// Engine applies to every run, Decoupled and Selective to the
	// instrumented ones. Results are engine- and checker-independent
	// (the engines are bit-identical, the tag pipeline changes
	// throughput, not verdicts); Selective changes cycle counts only.
	Base shift.Options
	// Workers caps the experiment cells run concurrently: 0 means
	// runtime.NumCPU(), 1 forces serial execution. The results are
	// identical at any setting.
	Workers int
}

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

// options converts a configuration into run options for a benchmark,
// on top of base's engine and checker settings.
func (c Config) options(b *workload.Benchmark, base shift.Options) shift.Options {
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
		Engine:         base.Engine,
		Decoupled:      base.Decoupled,
		Selective:      base.Selective,
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
func (h Harness) RunBenchmark(b *workload.Benchmark, scale int, cfg *Config) (*Measurement, error) {
	opt := shift.Options{Engine: h.Base.Engine}
	if cfg != nil {
		opt = cfg.options(b, h.Base)
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
