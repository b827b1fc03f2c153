// Command shiftattack runs the security evaluation standalone (the
// paper's Table 2): every attack at byte and word granularity, verifying
// detection with no false positives and that each exploit succeeds when
// SHIFT is off.
//
// With -signatures it additionally extracts an intrusion-prevention
// signature from each detected high-level attack (the attacker-controlled
// bytes at the violated sink) and shows the input channel they came from.
//
// -list prints the structured attack corpus (add -json for a
// machine-readable listing); -corpus runs the full scenario × checker ×
// granularity detection-precision matrix instead of the Table-2 sweep.
//
// Usage:
//
//	shiftattack [-verbose] [-signatures] [-list [-json]] [-corpus]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"shift/internal/attacks"
	"shift/internal/bench"
	"shift/internal/forensics"
	"shift/internal/shift"
	"shift/internal/taint"
)

// printSignatures re-runs each exploit and prints the extracted signature
// with its provenance.
func printSignatures() error {
	fmt.Println("\nIntrusion-prevention signatures (attacker-controlled sink bytes):")
	all := append(attacks.All(), attacks.Extensions()...)
	for _, a := range all {
		conf := a.Config()
		conf.Granularity = taint.Byte
		world := a.Exploit()
		res, err := shift.BuildAndRun([]shift.Source{{Name: a.Program, Text: a.Source}},
			world, shift.Options{Instrument: true, Policy: conf})
		if err != nil {
			return err
		}
		if res.Alert == nil {
			fmt.Printf("  %-30s (not detected)\n", a.Program)
			continue
		}
		sig := forensics.FromViolation(res.Alert.Violation)
		if sig == nil {
			fmt.Printf("  %-30s %s (register-level fault: no sink bytes)\n",
				a.Program, res.Alert.Violation.Policy)
			continue
		}
		fmt.Printf("  %-30s %s\n", a.Program, sig)
		for _, p := range forensics.Locate(sig, forensics.Channels{
			Network: world.NetIn, Stdin: world.Stdin, Args: world.Args, Files: world.Files,
		}) {
			fmt.Printf("  %-30s   token %q from %s+%d\n", "", p.Token.Text, p.Channel, p.Offset)
		}
	}
	return nil
}

// listCorpus prints the scenario metadata table, or its JSON form.
func listCorpus(asJSON bool) error {
	metas := make([]attacks.ScenarioMeta, 0, len(attacks.Corpus()))
	for _, s := range attacks.Corpus() {
		metas = append(metas, s.Meta())
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(metas)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tTYPE\tEXPECT\tKIND\tCHANNEL\tCVE")
	for _, m := range metas {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Type, m.Expect, m.Kind, m.Channel, m.CVE)
	}
	return tw.Flush()
}

// runCorpus prints the detection-precision matrix: every scenario at
// every checker configuration, with the exploit verdict (policy and
// path), the benign verdict, and the channel attribution.
func runCorpus() error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tCONFIG\tEXPLOIT\tBENIGN\tCHANNELS\tOK")
	failed := 0
	total := 0
	for _, opt := range attacks.Matrix(taint.Byte, taint.Word) {
		outs, err := attacks.EvaluateCorpus(opt)
		if err != nil {
			return err
		}
		for _, o := range outs {
			total++
			ok := o.Detected()
			if !ok {
				failed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s/%s\t%s\t%s\t%v\n",
				o.Scenario.Name, attacks.Label(opt),
				o.Exploit.Policy, o.Exploit.Kind, o.Benign.Kind,
				o.Exploit.Channels, ok)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d corpus evaluations failed", failed, total)
	}
	fmt.Printf("\nall %d corpus evaluations detected, zero false positives\n", total)
	return nil
}

func main() {
	verbose := flag.Bool("verbose", false, "print per-attack details")
	signatures := flag.Bool("signatures", false, "extract intrusion signatures from the exploits")
	list := flag.Bool("list", false, "list the attack corpus and exit")
	asJSON := flag.Bool("json", false, "with -list, emit JSON")
	corpus := flag.Bool("corpus", false, "run the corpus detection-precision matrix and exit")
	flag.Parse()

	if *list {
		if err := listCorpus(*asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "shiftattack:", err)
			os.Exit(1)
		}
		return
	}
	if *corpus {
		if err := runCorpus(); err != nil {
			fmt.Fprintln(os.Stderr, "shiftattack:", err)
			os.Exit(1)
		}
		return
	}

	results, err := bench.Harness{}.Table2()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftattack:", err)
		os.Exit(1)
	}
	bench.PrintTable2(os.Stdout, results)

	failed := 0
	for _, o := range results {
		if !o.Detected() {
			failed++
		}
		if *verbose {
			_, gran := o.Opt.ResolvePolicy()
			fmt.Printf("\n%s @ %s-level:\n  benign: %s %s\n  exploit: %s %s\n  unprotected exploit: %s %s\n",
				o.Scenario.Program, gran, o.Benign.Kind, o.Benign.Detail,
				o.Exploit.Kind, o.Exploit.Policy, o.Unprotected.Kind, o.Unprotected.Detail)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "shiftattack: %d evaluations failed\n", failed)
		os.Exit(1)
	}
	fmt.Printf("\nall %d evaluations detected, zero false positives\n", len(results))

	if *signatures {
		if err := printSignatures(); err != nil {
			fmt.Fprintln(os.Stderr, "shiftattack:", err)
			os.Exit(1)
		}
	}
}
