package attacks

import (
	"strings"
	"testing"

	"shift/internal/shift"
	"shift/internal/taint"
)

// evaluate runs one scenario at one granularity under plain SHIFT: the
// Table 2 protocol of benign, exploit and unprotected runs.
func evaluate(t *testing.T, s *Scenario, g taint.Granularity) *Outcome {
	t.Helper()
	o, err := EvaluateScenario(s, shift.Options{Instrument: true, Granularity: g})
	if err != nil {
		t.Fatalf("%s (%s): %v", s.Name, g, err)
	}
	return o
}

// TestTable2 is the paper's security evaluation: every attack detected at
// both granularities through its declared sink or trap path, no false
// positives, and every exploit succeeds when SHIFT is off.
func TestTable2(t *testing.T) {
	scns := Table2Scenarios()
	if len(scns) != len(All()) {
		t.Fatalf("%d Table 2 scenarios for %d attacks", len(scns), len(All()))
	}
	for i, s := range scns {
		if s.Attack != All()[i] {
			t.Errorf("scenario %d is %s, want %s", i, s.Program, All()[i].Program)
		}
		for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
			o := evaluate(t, s, g)
			if o.Benign.Kind != VerdictSilent {
				t.Errorf("%s (%s): false positive: %s", s.Name, g, o.Benign.Detail)
			}
			if o.Exploit.Kind != s.Kind || o.Exploit.Policy != s.Expect {
				t.Errorf("%s (%s): exploit verdict %s/%s, want %s/%s",
					s.Name, g, o.Exploit.Kind, o.Exploit.Policy, s.Kind, s.Expect)
			}
			if o.Unprotected.Kind != VerdictSilent {
				t.Errorf("%s (%s): exploit did not succeed without SHIFT: %s", s.Name, g, o.Unprotected.Detail)
			}
			if !o.Detected() {
				t.Errorf("%s (%s): overall verdict false", s.Name, g)
			}
		}
	}
}

// TestAttackEffectsWithoutSHIFT spot-checks that the exploits actually do
// their damage when unprotected — the attack is real, not just a policy
// tripwire.
func TestAttackEffectsWithoutSHIFT(t *testing.T) {
	run := func(a *Attack, w *shift.World) *shift.Result {
		t.Helper()
		res, err := shift.BuildAndRun([]shift.Source{{Name: a.Program, Text: a.Source}}, w, shift.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("%s: trap: %v", a.Program, res.Trap)
		}
		return res
	}

	// Tar writes to an absolute path.
	res := run(GnuTar, GnuTar.Exploit())
	found := false
	for _, p := range res.World.Opened {
		if strings.HasPrefix(p, "/etc/") {
			found = true
		}
	}
	if !found {
		t.Errorf("tar exploit did not reach /etc: opened %v", res.World.Opened)
	}

	// XSS delivers a script tag to the browser.
	res = run(Scry, Scry.Exploit())
	if !strings.Contains(strings.ToLower(string(res.World.HTMLOut)), "<script") {
		t.Errorf("scry exploit output lacks script tag: %q", res.World.HTMLOut)
	}

	// SQL injection reaches the database with a spliced quote.
	res = run(PhpMyFAQ, PhpMyFAQ.Exploit())
	if len(res.World.SQLLog) == 0 || !strings.Contains(res.World.SQLLog[0], "UNION SELECT") {
		t.Errorf("faq exploit query missing: %v", res.World.SQLLog)
	}

	// The format string attack overwrites the chosen slot — observable
	// as a store that strict mode would never allow.
	res = run(Bftpd, Bftpd.Exploit())
	if res.ExitStatus != 0 {
		t.Errorf("bftpd exploit did not complete: exit %d", res.ExitStatus)
	}
}

// TestBenignBehaviourPreserved: under SHIFT, benign requests are served
// exactly as without it.
func TestBenignBehaviourPreserved(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Program, func(t *testing.T) {
			base, err := shift.BuildAndRun([]shift.Source{{Name: a.Program, Text: a.Source}},
				a.Benign(), shift.Options{})
			if err != nil {
				t.Fatal(err)
			}
			conf := a.Config()
			prot, err := shift.BuildAndRun([]shift.Source{{Name: a.Program, Text: a.Source}},
				a.Benign(), shift.Options{Instrument: true, Policy: conf})
			if err != nil {
				t.Fatal(err)
			}
			if base.Trap != nil || prot.Trap != nil {
				t.Fatalf("traps: base=%v prot=%v", base.Trap, prot.Trap)
			}
			if prot.Alert != nil {
				t.Fatalf("false positive: %v", prot.Alert)
			}
			if string(base.World.NetOut) != string(prot.World.NetOut) ||
				string(base.World.Stdout) != string(prot.World.Stdout) ||
				string(base.World.HTMLOut) != string(prot.World.HTMLOut) {
				t.Error("benign behaviour diverged under SHIFT")
			}
		})
	}
}

func TestTableMetadata(t *testing.T) {
	if len(All()) != 8 {
		t.Fatalf("Table 2 has 8 rows, got %d", len(All()))
	}
	for _, a := range All() {
		if a.CVE == "" || a.Program == "" || a.Type == "" || a.Expect == "" || a.Policies == "" {
			t.Errorf("%s: incomplete metadata", a.Program)
		}
	}
}

func TestWordGranularityStillDetects(t *testing.T) {
	// Coarse tags may over-approximate but never miss these attacks.
	if o := evaluate(t, scnOf(t, "qwikiwiki"), taint.Word); !o.Detected() {
		t.Errorf("word-level tracking missed the traversal: %+v", o)
	}
}

// TestExtensionAttacks evaluates the scenarios added beyond Table 2
// (currently H4 command injection) under the same three-leg protocol.
func TestExtensionAttacks(t *testing.T) {
	for _, a := range Extensions() {
		var s *Scenario
		for _, c := range Corpus() {
			if c.Attack == a {
				s = c
			}
		}
		if s == nil {
			t.Fatalf("%s: not in the corpus", a.Program)
		}
		for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
			if o := evaluate(t, s, g); !o.Detected() {
				t.Errorf("%s (%s): benign=%s exploit=%s/%s unprotected=%s",
					s.Name, g, o.Benign.Kind, o.Exploit.Kind, o.Exploit.Policy, o.Unprotected.Kind)
			}
		}
	}
}
