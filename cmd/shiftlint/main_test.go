package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const badProg = `
.data
buf: .space 64
.text
.entry main
main:
	movl r1 = buf
	movl r2 = 7
	st8 [r1] = r2
	movl r32 = 0
	syscall 1
`

func writeTemp(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func lint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	return runArgs(args, &out, &errb), out.String(), errb.String()
}

// The acceptance pair: a hand-written program missing its tag update
// exits non-zero with a pc-addressed finding; the same program run
// through the instrumentation first lints clean.
func TestMissingTagUpdateFlagged(t *testing.T) {
	path := writeTemp(t, "bad.s", badProg)

	code, out, _ := lint(t, path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "pc 2") || !strings.Contains(out, "store-tag-update") {
		t.Errorf("finding not pc-addressed:\n%s", out)
	}

	code, out, errb := lint(t, "-instrument", path)
	if code != 0 {
		t.Fatalf("instrumented counterpart: exit %d, want 0; output:\n%s%s", code, out, errb)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeTemp(t, "bad.s", badProg)
	code, out, _ := lint(t, "-json", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []struct {
		PC        int    `json:"pc"`
		Invariant string `json:"invariant"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(findings) == 0 || findings[0].PC != 2 || findings[0].Invariant != "store-tag-update" {
		t.Errorf("unexpected findings: %+v", findings)
	}

	// A clean program still emits a (empty) JSON array.
	code, out, _ = lint(t, "-json", "-instrument", path)
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("clean JSON run: exit %d, output %q", code, out)
	}
}

func TestMinicSourceBuildsAndLints(t *testing.T) {
	path := writeTemp(t, "p.mc", `
int g[8];
void main() {
	char buf[8];
	int n = recv(buf, 8);
	g[0] = n;
	exit(0);
}
`)
	// Uninstrumented compiler output has unpaired memory traffic.
	code, out, _ := lint(t, path)
	if code != 1 {
		t.Fatalf("uninstrumented minic: exit %d, want 1\n%s", code, out)
	}
	// Every instrumentation mode lints clean.
	for _, flags := range [][]string{
		{"-instrument"},
		{"-instrument", "-gran", "word"},
		{"-instrument", "-enhancements"},
		{"-instrument", "-optimize", "-serialized-tags"},
		{"-instrument", "-per-function", "-guards"},
		{"-instrument", "-per-use"},
	} {
		args := append(append([]string{}, flags...), path)
		code, out, errb := lint(t, args...)
		if code != 0 {
			t.Errorf("%v: exit %d\n%s%s", flags, code, out, errb)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var errb bytes.Buffer
	if _, err := parseFlags([]string{}, &errb); err == nil {
		t.Error("no-argument invocation accepted")
	}
	path := writeTemp(t, "p.s", "main:\n\tsyscall 1\n")
	code, _, _ := lint(t, "-gran", "nibble", "-instrument", path)
	if code != 2 {
		t.Errorf("bad granularity: exit %d, want 2", code)
	}
}

// -reach reports facts, not violations: the same uninstrumented
// program that fails the contract lint exits 0 under -reach, with a
// parseable per-block report that accounts for every site.
func TestReachExitCodes(t *testing.T) {
	const prog = `
.data
buf: .space 64
.text
.entry main
main:
	movl r32 = buf
	movl r33 = 8
	syscall 5
	movl r1 = buf
	ld8 r2 = [r1]
	st8 [r1] = r2
	movl r32 = 0
	syscall 1
`
	path := writeTemp(t, "p.s", prog)

	// Baseline: the contract lint flags the raw memory traffic.
	if code, out, _ := lint(t, path); code != 1 {
		t.Fatalf("plain lint: exit %d, want 1\n%s", code, out)
	}

	code, out, errb := lint(t, "-reach", path)
	if code != 0 {
		t.Fatalf("-reach: exit %d, want 0\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "reach: ") || !strings.Contains(out, "block ") {
		t.Errorf("-reach output missing report lines:\n%s", out)
	}

	code, out, _ = lint(t, "-reach", "-json", path)
	if code != 0 {
		t.Fatalf("-reach -json: exit %d, want 0", code)
	}
	var rep struct {
		Stats struct {
			Sites int `json:"sites"`
			Kept  int `json:"kept"`
		} `json:"stats"`
		Blocks []struct {
			Live bool `json:"live"`
		} `json:"blocks"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-reach -json output not JSON: %v\n%s", err, out)
	}
	if rep.Stats.Sites != 2 || rep.Stats.Kept != 2 || len(rep.Blocks) == 0 {
		t.Errorf("reach stats = %+v, want 2 sites both kept", rep)
	}
}

// -summary appends one line with block/edge counts and per-invariant
// finding counts; under -json it lands on stderr.
func TestSummaryLine(t *testing.T) {
	path := writeTemp(t, "bad.s", badProg)
	code, out, _ := lint(t, "-summary", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "summary: blocks=") ||
		!strings.Contains(out, "store-tag-update=") {
		t.Errorf("summary line missing or incomplete:\n%s", out)
	}

	_, out, errb := lint(t, "-summary", "-json", path)
	if strings.Contains(out, "summary:") {
		t.Error("-json stdout polluted by the summary line")
	}
	if !strings.Contains(errb, "summary: blocks=") {
		t.Errorf("summary line not on stderr under -json:\n%s", errb)
	}
}
