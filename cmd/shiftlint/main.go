// Command shiftlint statically verifies the SHIFT instrumentation
// contract (internal/staticcheck) over a program and reports every
// violation, pc-addressed, in human or machine (-json) form.
//
// Usage:
//
//	shiftlint [-json] [-instrument] [-gran byte|word] [-enhancements]
//	          [-serialized-tags] [-optimize] [-per-function] [-per-use]
//	          [-guards] [-reach] [-summary] prog.s | prog.mc
//
// Assembly sources (.s) are assembled and linted as-is; minic sources
// (.mc) are compiled with the runtime library first. With -instrument
// the SHIFT pass runs before the lint — its internal verification gate
// is bypassed so this tool, not the pass, is the reporter.
//
// With -reach the contract lint is replaced by the whole-program taint
// reachability analysis (internal/staticcheck/reach): per-basic-block
// may-touch-taint facts plus a program summary, in human or JSON form.
// It answers "what would selective instrumentation keep", so an
// uninstrumented program exits 0.
//
// -summary appends one line — blocks, edges, and finding counts by
// invariant — after the findings (to stderr under -json, keeping
// stdout machine-readable).
//
// Exit status: 0 clean, 1 findings, 2 usage or build error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"shift/internal/asm"
	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/staticcheck"
	"shift/internal/staticcheck/reach"
	"shift/internal/taint"
)

type config struct {
	jsonOut  bool
	reachOut bool
	summary  bool
	path     string
	// opt carries -instrument, -gran and the pass flags; the lint runs
	// the pass with opt's instrumentation options.
	opt shift.Options
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("shiftlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.BoolVar(&c.jsonOut, "json", false, "emit findings as a JSON array")
	fs.BoolVar(&c.opt.Instrument, "instrument", false, "run the SHIFT pass before linting")
	shift.BindFlags(fs, &c.opt, "gran", "enhancements", "serialized-tags", "optimize",
		"per-function", "per-use", "guards")
	fs.BoolVar(&c.reachOut, "reach", false, "report taint-reachability facts instead of linting")
	fs.BoolVar(&c.summary, "summary", false, "append a one-line summary (blocks, edges, findings by invariant)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("exactly one program expected")
	}
	c.path = fs.Arg(0)
	return c, nil
}

// run executes the lint and returns the process exit status.
func run(c *config, stdout, stderr io.Writer) int {
	var prog *isa.Program
	text, err := os.ReadFile(c.path)
	if err != nil {
		fmt.Fprintln(stderr, "shiftlint:", err)
		return 2
	}
	if strings.HasSuffix(c.path, ".s") {
		prog, err = asm.Assemble(string(text), asm.Options{})
	} else {
		prog, err = shift.Build([]shift.Source{{Name: c.path, Text: string(text)}}, shift.Options{})
	}
	if err != nil {
		fmt.Fprintln(stderr, "shiftlint:", err)
		return 2
	}

	gran := c.opt.Granularity
	if c.opt.Instrument {
		// The pass' own verification gate is bypassed so this tool, not
		// the pass, reports contract violations.
		opt := c.opt.InstrumentOptions()
		opt.SkipVerify = true
		prog, err = instrument.Apply(prog, opt)
		if err != nil {
			fmt.Fprintln(stderr, "shiftlint:", err)
			return 2
		}
	}

	if c.reachOut {
		return runReach(c, prog, gran, stdout, stderr)
	}

	findings := staticcheck.Check(prog)
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if findings == nil {
			findings = []staticcheck.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "shiftlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s: %s\n", c.path, f.String())
		}
	}
	if c.summary {
		// Under -json the summary goes to stderr so stdout stays a
		// parseable findings array.
		dst := stdout
		if c.jsonOut {
			dst = stderr
		}
		fmt.Fprintln(dst, summaryLine(prog, gran, findings))
	}
	if len(findings) > 0 {
		if !c.jsonOut {
			fmt.Fprintf(stdout, "shiftlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// summaryLine renders the -summary line: CFG size plus finding counts
// grouped by invariant, invariants in sorted order.
func summaryLine(prog *isa.Program, gran taint.Granularity, findings []staticcheck.Finding) string {
	a := reach.Analyze(prog, reach.Config{Sources: policy.DefaultConfig().Sources, Gran: gran})
	s := a.Stats()
	line := fmt.Sprintf("summary: blocks=%d edges=%d findings=%d", s.Blocks, s.Edges, len(findings))
	byInv := map[string]int{}
	for _, f := range findings {
		byInv[f.Invariant]++
	}
	invs := make([]string, 0, len(byInv))
	for inv := range byInv {
		invs = append(invs, inv)
	}
	sort.Strings(invs)
	for _, inv := range invs {
		line += fmt.Sprintf(" %s=%d", inv, byInv[inv])
	}
	return line
}

// runReach reports the taint-reachability facts for prog and always
// exits 0 on success: the analysis describes what selective
// instrumentation would keep, it does not judge the program.
func runReach(c *config, prog *isa.Program, gran taint.Granularity, stdout, stderr io.Writer) int {
	a := reach.Analyze(prog, reach.Config{Sources: policy.DefaultConfig().Sources, Gran: gran})
	stats := a.Stats()
	blocks := a.Blocks()
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		out := struct {
			Stats  reach.Stats       `json:"stats"`
			Blocks []reach.BlockFact `json:"blocks"`
		}{stats, blocks}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "shiftlint:", err)
			return 2
		}
	} else {
		for _, b := range blocks {
			live := "live"
			if !b.Live {
				live = "dead"
			}
			fmt.Fprintf(stdout, "block %d-%d (%s): %s sites=%d kept=%d seeds=%d\n",
				b.Start, b.End, b.Sym, live, b.Sites, b.Kept, b.Seeds)
		}
		fmt.Fprintf(stdout, "reach: blocks=%d edges=%d objects=%d tainted=%d all-tainted=%v rounds=%d sites=%d kept=%d skipped=%d dead=%d\n",
			stats.Blocks, stats.Edges, stats.Objects, stats.Tainted,
			stats.AllTainted, stats.Rounds, stats.Sites, stats.Kept,
			stats.Skipped, stats.DeadSites)
	}
	if c.summary {
		dst := stdout
		if c.jsonOut {
			dst = stderr
		}
		fmt.Fprintln(dst, summaryLine(prog, gran, staticcheck.Check(prog)))
	}
	return 0
}

// runArgs parses args, lints, and returns the process exit status: a
// bad flag value is a usage error (2).
func runArgs(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "shiftlint:", err)
		return 2
	}
	return run(c, stdout, stderr)
}

func main() {
	os.Exit(runArgs(os.Args[1:], os.Stdout, os.Stderr))
}
