package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests exec the built command, so flag validation and exit codes
// are tested at the process boundary, exactly as a user hits them.
var shiftrunBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "shiftrun-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shiftrunBin = filepath.Join(dir, "shiftrun")
	out, err := exec.Command("go", "build", "-o", shiftrunBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building shiftrun: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(shiftrunBin, args...)
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

func writeProg(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.mc")
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
	putc('\n');
	exit(0);
}
`

// -tagpipe is a switch: -tagpipe and -tagpipe=false both parse, and a
// leftover worker count is a usage error (exit 2), not a silent fallback.
func TestTagpipeFlagValidation(t *testing.T) {
	prog := writeProg(t, tinyProg)
	for _, ok := range []string{"-tagpipe", "-tagpipe=false", "-tagpipe=true"} {
		if code, _, errb := runCmd(t, ok, prog); code != 0 {
			t.Errorf("%s: exit %d, want 0 (stderr: %s)", ok, code, errb)
		}
	}
	for _, bad := range [][]string{{"-tagpipe=2"}, {"-tagpipe", "2"}} {
		code, _, errb := runCmd(t, append(bad, prog)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", bad, code, errb)
		}
		if errb == "" {
			t.Errorf("%v: no usage message", bad)
		}
	}
}

// An unknown -engine is likewise exit 2 with a usage error.
func TestEngineFlagValidation(t *testing.T) {
	prog := writeProg(t, tinyProg)
	code, _, errb := runCmd(t, "-engine", "jit", prog)
	if code != 2 || !strings.Contains(errb, "engine") {
		t.Errorf("-engine jit: exit %d, stderr %q; want 2 with a usage message", code, errb)
	}
}

// -tagpipe runs the program under the decoupled pipeline: same guest
// output and exit status as the inline run, plus a pipeline stats line.
func TestTagpipeRunMatchesInline(t *testing.T) {
	prog := writeProg(t, tinyProg)
	common := []string{"-protect", "-net", "hello worlds!", prog}

	code, inlineOut, errb := runCmd(t, common...)
	if code != 0 {
		t.Fatalf("inline run: exit %d\n%s", code, errb)
	}
	code, pipedOut, errb := runCmd(t, append([]string{"-tagpipe"}, common...)...)
	if code != 0 {
		t.Fatalf("decoupled run: exit %d\n%s", code, errb)
	}
	stats := ""
	for _, line := range strings.Split(pipedOut, "\n") {
		if strings.HasPrefix(line, "tagpipe: ") {
			stats = line
		}
	}
	if stats == "" {
		t.Fatalf("decoupled run printed no pipeline stats:\n%s", pipedOut)
	}
	if got := strings.Replace(pipedOut, stats+"\n", "", 1); got != inlineOut {
		t.Errorf("guest output differs:\ninline:  %q\npiped:   %q", inlineOut, got)
	}
	if strings.Contains(stats, " 0 records") {
		t.Errorf("pipeline reported no records: %s", stats)
	}
}

// Inline checking is the default; -tagpipe=false keeps it and must not
// print pipeline stats.
func TestTagpipeZeroIsInline(t *testing.T) {
	prog := writeProg(t, tinyProg)
	for _, args := range [][]string{{"-tagpipe=false"}, {}} {
		code, out, errb := runCmd(t, append(args, "-protect", "-net", "x", prog)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, errb)
		}
		if strings.Contains(out, "tagpipe:") {
			t.Errorf("%v: inline run printed pipeline stats:\n%s", args, out)
		}
	}
}

// An explicit -gran overrides the policy file's granularity: -gran word
// with a policy that names none runs exactly like a policy that says
// "granularity word", and unlike -gran byte.
func TestGranOverridesPolicy(t *testing.T) {
	prog := writeProg(t, tinyProg)
	dir := t.TempDir()
	writePolicy := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := writePolicy("plain.conf", "source network\nenable H1\n")
	word := writePolicy("word.conf", "granularity word\nsource network\nenable H1\n")
	cycles := func(args ...string) string {
		t.Helper()
		args = append([]string{"-protect", "-counters", "-net", "hello worlds!"}, append(args, prog)...)
		code, out, errb := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, errb)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "cycles: ") {
				return line
			}
		}
		t.Fatalf("%v: no counters line:\n%s", args, out)
		return ""
	}
	override := cycles("-gran", "word", "-policy", plain)
	if want := cycles("-policy", word); override != want {
		t.Errorf("-gran word -policy: %q, want the word-granularity policy's %q", override, want)
	}
	if byteRun := cycles("-gran", "byte", "-policy", plain); override == byteRun {
		t.Errorf("-gran word and -gran byte both print %q", override)
	}
}
