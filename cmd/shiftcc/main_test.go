package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests exec the built command, so flag parsing and exit codes are
// tested at the process boundary, exactly as a user hits them.
var shiftccBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "shiftcc-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shiftccBin = filepath.Join(dir, "shiftcc")
	out, err := exec.Command("go", "build", "-o", shiftccBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building shiftcc: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(shiftccBin, args...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinyProg = `
char buf[16];
void main() {
	int n = recv(buf, 16);
	int i;
	int acc = 0;
	for (i = 0; i < n; i++) acc += buf[i];
	print_int(acc);
	exit(0);
}
`

// An explicit -gran overrides the policy file's granularity: -gran word
// with a policy that names none compiles exactly like a policy that says
// "granularity word", and unlike -gran byte.
func TestGranOverridesPolicy(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.mc", tinyProg)
	plain := writeFile(t, dir, "plain.conf", "source network\nenable H1\n")
	word := writeFile(t, dir, "word.conf", "granularity word\nsource network\nenable H1\n")
	disasm := func(args ...string) string {
		t.Helper()
		args = append(append([]string{"-instrument"}, args...), prog)
		code, out, errb := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, errb)
		}
		return out
	}
	override := disasm("-gran", "word", "-policy", plain)
	if want := disasm("-policy", word); override != want {
		t.Error("-gran word -policy plain.conf differs from the word-granularity policy")
	}
	if after := disasm("-policy", plain, "-gran", "word"); after != override {
		t.Error("-gran after -policy does not override the same way")
	}
	if byteOut := disasm("-gran", "byte", "-policy", plain); byteOut == override {
		t.Error("-gran word and -gran byte print the same disassembly")
	}
}

// A bad -gran is a usage error (exit 2) that names the flag.
func TestGranValidation(t *testing.T) {
	prog := writeFile(t, t.TempDir(), "p.mc", tinyProg)
	code, _, errb := runCmd(t, "-instrument", "-gran", "nibble", prog)
	if code != 2 || !strings.Contains(errb, "-gran") || !strings.Contains(errb, "Usage") {
		t.Errorf("-gran nibble: exit %d, stderr %q; want 2 with a usage message", code, errb)
	}
}
