package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The acceptance tests exec the built command so flag validation is
// tested at the process boundary. Experiments themselves are covered by
// internal/bench; here only the cheap table1 path runs end to end.
var buildOnce sync.Once
var builtPath string
var buildErr error

func shiftbenchBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		builtPath = filepath.Join(os.TempDir(), "shiftbench-under-test")
		out, err := exec.Command("go", "build", "-o", builtPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			builtPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building shiftbench: %v\n%s", buildErr, builtPath)
	}
	return builtPath
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(shiftbenchBin(t), args...)
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

// Invalid flag values are usage errors (exit 2), never silent defaults.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the usage message
	}{
		{[]string{"-tagpipe=2", "-experiment", "table1"}, "tagpipe"},
		{[]string{"-tagpipe", "2", "-experiment", "table1"}, "argument"},
		{[]string{"-engine", "turbo", "-experiment", "table1"}, "engine"},
		{[]string{"-scale-div", "0", "-experiment", "table1"}, "scale-div"},
	}
	for _, c := range cases {
		code, _, errb := runCmd(t, c.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c.args, code, errb)
		}
		if !strings.Contains(errb, c.want) {
			t.Errorf("%v: stderr %q lacks %q", c.args, errb, c.want)
		}
	}
}

// -tagpipe is a switch: both -tagpipe and -tagpipe=false are accepted;
// table1 is static, so this stays fast while still walking the full flag
// path.
func TestTagpipeFlagAccepted(t *testing.T) {
	for _, on := range []string{"-tagpipe", "-tagpipe=false"} {
		code, out, errb := runCmd(t, on, "-experiment", "table1")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", on, code, errb)
		}
		if !strings.Contains(out, "Table 1") {
			t.Errorf("%s: table1 output missing:\n%s", on, out)
		}
	}
}
