// Command shiftrun compiles a minic program and executes it on the
// simulated machine, with or without SHIFT protection, reporting output,
// alerts and performance counters.
//
// Usage:
//
//	shiftrun [-protect] [-selective] [-gran byte|word] [-enhancements] [-policy file]
//	         [-serialized-tags] [-unsafe-preempt] [-quantum n]
//	         [-net string] [-stdin string] [-file name=path ...]
//	         [-arg value ...] [-counters] [-oracle] [-tagpipe]
//	         [-engine block|interp]
//	         [-trace out.jsonl] [-trace-chrome out.json] [-trace-depth n]
//	         [-metrics dest] prog.mc
//
// -engine selects the execution engine for unhooked runs: block
// (default) runs cached pre-decoded basic blocks, interp runs the
// reference interpreter. Checked (-oracle, -tagpipe), traced (-trace,
// -trace-chrome), metered (-metrics) and profiled runs always use the
// interpreter, whatever -engine says. Both engines produce bit-identical
// results; interp exists as the differential baseline and for debugging.
//
// -selective (with -protect) runs the whole-program taint-reachability
// analysis first and leaves statically taint-unreachable sites
// uninstrumented — same verdicts, fewer instrumented instructions. The
// site accounting is printed after the run and exported as the
// shift_selective_sites_kept / shift_selective_sites_skipped gauges
// when -metrics is set.
//
// -gran sets the tracking granularity. With -policy, the policy file's
// "granularity" line applies unless -gran is given explicitly, which
// overrides it.
//
// -net supplies network input (a taint source), -file mounts a host file
// into the simulated filesystem, -arg appends a program argument.
// -oracle runs the lockstep reference DIFT engine alongside execution and
// reports any divergence between the tag machinery and plain shadow
// interpretation (exit status 4). -tagpipe replaces per-instruction
// shadow checking with the decoupled tag pipeline, which records each
// retirement into a batch and checks at policy sinks — same verdicts,
// batched propagation.
//
// -trace records the taint-lifecycle flight recorder to a JSONL file
// ("-" for stdout); -trace-chrome writes the same events in Chrome
// trace-event format for Perfetto; -trace-depth bounds the ring buffer.
// When a traced run ends in a policy violation, the forensic report
// (signature, provenance, trace tail) is printed to stderr.
// -metrics exposes the run's counters: an addr-like value (":9090")
// serves Prometheus text over HTTP until interrupted, anything else is a
// file ("-" for stdout) the exposition is dumped to after the run.
//
// For threaded guests, -quantum sets the scheduler time slice in cycles,
// -serialized-tags makes byte-level bitmap updates lock-free atomic, and
// -unsafe-preempt re-opens the §4.4 hazard by letting a slice end between
// a data store and its tag update (the default tag-coherent schedule
// forbids that; the flag exists to demonstrate the failure mode).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"

	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/metrics"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/trace"
)

// listFlag collects repeated string flags.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	protect := flag.Bool("protect", false, "run under SHIFT taint tracking and policies")
	selective := flag.Bool("selective", false, "with -protect, instrument only statically taint-reachable sites")
	gran := flag.String("gran", "byte", "tracking granularity: byte or word")
	enhance := flag.Bool("enhancements", false, "enable the proposed enhancement instructions")
	policyFile := flag.String("policy", "", "policy configuration file")
	netIn := flag.String("net", "", "network input bytes")
	stdinIn := flag.String("stdin", "", "standard input bytes")
	counters := flag.Bool("counters", false, "print cycle and instruction counters")
	profile := flag.Bool("profile", false, "print the per-function execution profile")
	oracleOn := flag.Bool("oracle", false, "cross-check tag state against a lockstep reference engine")
	tagpipeOn := flag.Bool("tagpipe", false, "check with the decoupled tag pipeline instead of inline")
	serialized := flag.Bool("serialized-tags", false, "serialize byte-level bitmap updates with a cmpxchg retry loop")
	unsafePreempt := flag.Bool("unsafe-preempt", false, "allow preemption between a data store and its tag update (reproduces the paper's §4.4 hazard)")
	quantum := flag.Uint64("quantum", 0, "scheduler time slice in cycles for threaded guests (0 = default)")
	traceOut := flag.String("trace", "", "write the taint-lifecycle trace as JSONL to this file (- for stdout)")
	traceChrome := flag.String("trace-chrome", "", "write the trace in Chrome trace-event format (Perfetto) to this file")
	traceDepth := flag.Int("trace-depth", 0, "flight-recorder ring capacity in events (0 = default)")
	metricsDest := flag.String("metrics", "", "metrics destination: a listen address like :9090 serves Prometheus text over HTTP; otherwise a file the exposition is written to after the run (- for stdout)")
	engineName := flag.String("engine", "block", "execution engine for unhooked runs: block (cached translated basic blocks) or interp (reference interpreter); checked, traced, metered and profiled runs always interpret")
	var files, args listFlag
	flag.Var(&files, "file", "mount name=hostpath into the simulated filesystem (repeatable)")
	flag.Var(&args, "arg", "program argument (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "shiftrun: exactly one program expected")
		os.Exit(2)
	}

	var instrStats instrument.Stats
	opt := shift.Options{
		Instrument:     *protect,
		Selective:      *selective && *protect,
		InstrStats:     &instrStats,
		Profile:        *profile,
		Oracle:         *oracleOn,
		SerializedTags: *serialized,
		UnsafePreempt:  *unsafePreempt,
		Quantum:        *quantum,
	}
	if *tagpipeOn {
		opt.Decoupled = 1
	}
	switch *gran {
	case "byte":
		opt.Granularity = taint.Byte
	case "word":
		opt.Granularity = taint.Word
	default:
		fmt.Fprintf(os.Stderr, "shiftrun: unknown granularity %q\n", *gran)
		os.Exit(2)
	}
	engine, ok := machine.EngineFromString(*engineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "shiftrun: unknown engine %q (want block or interp)\n", *engineName)
		os.Exit(2)
	}
	opt.Engine = engine
	if *enhance {
		opt.Features = machine.Features{SetClrNaT: true, NaTAwareCmp: true}
	}
	if *policyFile != "" {
		text, err := os.ReadFile(*policyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftrun:", err)
			os.Exit(1)
		}
		conf, err := policy.Parse(string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftrun:", err)
			os.Exit(1)
		}
		// An explicit -gran overrides the policy file's granularity.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "gran" {
				conf.Granularity = opt.Granularity
			}
		})
		opt.Policy = conf
	}

	if *traceOut != "" || *traceChrome != "" {
		opt.Trace = trace.New(*traceDepth)
	}
	var serving net.Listener
	if *metricsDest != "" {
		opt.Metrics = metrics.NewRegistry()
		opt.Metrics.PublishExpvar()
		if strings.Contains(*metricsDest, ":") {
			ln, err := opt.Metrics.Serve(*metricsDest)
			if err != nil {
				fmt.Fprintln(os.Stderr, "shiftrun:", err)
				os.Exit(1)
			}
			serving = ln
			fmt.Fprintf(os.Stderr, "shiftrun: serving metrics at http://%s/metrics\n", ln.Addr())
		}
	}

	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftrun:", err)
		os.Exit(1)
	}

	world := shift.NewWorld()
	world.NetIn = []byte(*netIn)
	world.Stdin = []byte(*stdinIn)
	world.Args = args
	for _, spec := range files {
		name, host, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "shiftrun: bad -file %q (want name=hostpath)\n", spec)
			os.Exit(2)
		}
		content, err := os.ReadFile(host)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftrun:", err)
			os.Exit(1)
		}
		world.Files[name] = content
	}

	res, err := shift.BuildAndRun([]shift.Source{{Name: flag.Arg(0), Text: string(text)}}, world, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftrun:", err)
		os.Exit(1)
	}

	os.Stdout.Write(res.World.Stdout)
	if len(res.World.NetOut) > 0 {
		fmt.Printf("--- network output (%d bytes) ---\n%s\n", len(res.World.NetOut), res.World.NetOut)
	}
	if len(res.World.HTMLOut) > 0 {
		fmt.Printf("--- html output (%d bytes) ---\n%s\n", len(res.World.HTMLOut), res.World.HTMLOut)
	}
	if res.Alert != nil {
		fmt.Printf("*** %s\n", res.Alert)
	}
	if res.Trap != nil {
		fmt.Printf("*** trap: %v\n", res.Trap)
	}
	if *profile {
		fmt.Println("--- function profile (instructions retired) ---")
		for _, h := range res.Machine.FunctionProfile() {
			fmt.Printf("  %-24s %12d\n", h.Symbol, h.Count)
		}
		fmt.Println("--- hottest instructions ---")
		for _, h := range res.Machine.Hotspots(10) {
			fmt.Printf("  %6d x pc=%-6d %-16s %s\n", h.Count, h.PC, h.Symbol, h.Ins)
		}
	}
	if *oracleOn && res.Oracle != nil {
		st := res.Oracle.Stats
		fmt.Printf("oracle: %d steps, %d register checks, %d unit checks, %d sweeps\n",
			st.Steps, st.RegChecks, st.UnitChecks, st.Sweeps)
	}
	if *tagpipeOn && res.Pipe != nil {
		s := &res.Pipe.Stats
		fmt.Printf("tagpipe: %d records in %d segments (%d direct), %d drains, %d sweeps\n",
			s.Records.Load(), s.Segments.Load(), s.DirectSegs.Load(),
			s.Drains.Load(), s.Sweeps.Load())
	}
	if *selective && *protect {
		fmt.Printf("selective: %d sites, %d instrumented, %d skipped\n",
			instrStats.Sites, instrStats.Kept, instrStats.Skipped)
	}
	if *counters {
		fmt.Printf("cycles: %d  instructions: %d\n", res.Cycles, res.Retired)
		for cls := isa.CostClass(0); cls < isa.NumCostClasses; cls++ {
			if res.CyclesByClass[cls] > 0 {
				fmt.Printf("  %-12s %12d cycles\n", cls, res.CyclesByClass[cls])
			}
		}
	}
	if opt.Trace != nil {
		if *traceOut != "" {
			if err := writeOut(*traceOut, opt.Trace.WriteJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "shiftrun:", err)
				os.Exit(1)
			}
		}
		if *traceChrome != "" {
			if err := writeOut(*traceChrome, opt.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "shiftrun:", err)
				os.Exit(1)
			}
		}
		// A traced violation gets the full flight-recorder report: the
		// attack signature plus the event tail showing the tainted
		// input's path to the sink.
		if res.Alert != nil {
			if rep := res.Report(); rep != nil {
				fmt.Fprint(os.Stderr, rep)
			}
		}
	}
	if opt.Metrics != nil && serving == nil {
		if err := writeOut(*metricsDest, opt.Metrics.WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, "shiftrun:", err)
			os.Exit(1)
		}
	}
	if serving != nil {
		// Keep the exposition scrapeable until the user interrupts; the
		// run's counters are final at this point.
		fmt.Fprintln(os.Stderr, "shiftrun: run complete; metrics still serving (interrupt to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	switch {
	case res.Alert != nil:
		os.Exit(3)
	case res.Trap != nil:
		os.Exit(4)
	default:
		os.Exit(int(res.ExitStatus) & 0x7f)
	}
}

// writeOut writes via fn to path, with "-" meaning stdout.
func writeOut(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
