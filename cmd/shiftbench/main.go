// Command shiftbench regenerates the paper's evaluation tables and
// figures (Tables 1–3, Figures 6–9, and the §4.4 ablation).
//
// Usage:
//
//	shiftbench [-experiment all|table1|table2|table3|fig6|fig7|fig8|fig9|ablation]
//	           [-scale-div N] [-requests N] [-workers N] [-tagpipe] [-selective]
//	           [-engine block|interp] [-cpuprofile FILE] [-memprofile FILE]
//
// -scale-div divides the benchmarks' reference input sizes (1 = the full
// evaluation; larger values run proportionally faster). -requests sets
// the Figure 6 request count (the paper used 1000). -workers caps the
// experiment cells run concurrently (0 = one per CPU; the results are
// identical at any setting). -engine selects the execution engine for
// unhooked runs (the default block engine and the reference interpreter
// print identical output; the flag exists for performance comparison).
// -tagpipe moves the instrumented runs' shadow checking onto the
// decoupled tag pipeline (verdicts are unchanged, throughput is
// not); its checker is a StepHook, so those runs always interpret,
// whatever -engine says.
// -selective applies whole-program taint-reachability analysis before
// instrumenting, leaving statically taint-unreachable sites in their
// original encoding (verdict-equivalent; lowers checked-run overhead).
// -cpuprofile and -memprofile write pprof profiles for the performance
// workflow in docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"shift/internal/bench"
	"shift/internal/shift"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (all, table1, table2, table3, fig6, fig7, fig8, fig9, ablation)")
	scaleDiv := flag.Int("scale-div", 1, "divide reference input scales by this factor")
	requests := flag.Int("requests", 1000, "Figure 6 request count")
	var h bench.Harness
	flag.IntVar(&h.Workers, "workers", 0, "max concurrent experiment cells (0 = NumCPU, 1 = serial)")
	shift.BindFlags(flag.CommandLine, &h.Base, "tagpipe", "selective", "engine")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "shiftbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *scaleDiv < 1 {
		fmt.Fprintln(os.Stderr, "shiftbench: -scale-div must be >= 1")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := h.PrintAll(os.Stdout, *experiment, *scaleDiv, *requests); err != nil {
		fmt.Fprintln(os.Stderr, "shiftbench:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "shiftbench:", err)
			os.Exit(1)
		}
	}
}
