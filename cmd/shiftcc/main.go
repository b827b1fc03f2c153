// Command shiftcc is the SHIFT compiler driver: it compiles minic source
// files to the simulated ISA, optionally applying the SHIFT taint
// instrumentation, and prints the resulting assembly.
//
// Usage:
//
//	shiftcc [-instrument] [-gran byte|word] [-enhancements] [-policy file]
//	        [-no-runtime] [-stats] file.mc [file2.mc ...]
//
// -gran sets the tracking granularity. With -policy, the policy file's
// "granularity" line applies unless -gran is given explicitly, which
// overrides it.
package main

import (
	"flag"
	"fmt"
	"os"

	"shift/internal/isa"
	"shift/internal/shift"
)

func main() {
	var opt shift.Options
	flag.BoolVar(&opt.Instrument, "instrument", false, "apply the SHIFT taint-tracking pass")
	shift.BindFlags(flag.CommandLine, &opt, "gran", "enhancements", "policy")
	flag.BoolVar(&opt.NoRuntime, "no-runtime", false, "do not link the runtime library")
	stats := flag.Bool("stats", false, "print instruction counts per cost class instead of assembly")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "shiftcc: no input files")
		os.Exit(2)
	}

	var sources []shift.Source
	for _, name := range flag.Args() {
		text, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shiftcc:", err)
			os.Exit(1)
		}
		sources = append(sources, shift.Source{Name: name, Text: string(text)})
	}

	prog, err := shift.Build(sources, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftcc:", err)
		os.Exit(1)
	}

	if *stats {
		counts := prog.CountByClass()
		total := 0
		for _, c := range counts {
			total += c
		}
		fmt.Printf("instructions: %d\n", total)
		for cls := isa.CostClass(0); cls < isa.NumCostClasses; cls++ {
			if counts[cls] > 0 {
				fmt.Printf("  %-12s %8d\n", cls, counts[cls])
			}
		}
		return
	}
	fmt.Print(prog.Disassemble())
}
