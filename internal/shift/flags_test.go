package shift

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"shift/internal/machine"
	"shift/internal/taint"
)

func parseRunFlags(base Options, names []string, args ...string) (Options, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs, &base, names...)
	err := fs.Parse(args)
	return base, err
}

func TestBindFlags(t *testing.T) {
	all := []string{"gran", "policy", "enhancements", "engine", "tagpipe", "selective",
		"oracle", "serialized-tags", "unsafe-preempt", "quantum", "optimize",
		"per-function", "per-use", "guards"}
	opt, err := parseRunFlags(Options{}, all, "-gran", "word", "-enhancements", "-engine", "interp",
		"-tagpipe", "-selective", "-oracle", "-serialized-tags", "-unsafe-preempt", "-quantum", "7",
		"-optimize", "-per-function", "-per-use", "-guards")
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Granularity: taint.Word, Features: machine.Features{SetClrNaT: true, NaTAwareCmp: true},
		Engine: machine.EngineInterp, Decoupled: 1, Selective: true, Oracle: true,
		SerializedTags: true, UnsafePreempt: true, Quantum: 7, Optimize: true,
		NaTPerFunction: true, NaTPerUse: true, UserGuards: true,
	}
	if opt != want {
		t.Errorf("parsed %+v\nwant   %+v", opt, want)
	}

	// Defaults come from the base options: a command that checks with
	// the tag pipeline by default still accepts -tagpipe=false.
	if opt, err := parseRunFlags(Options{Decoupled: 1}, []string{"tagpipe"}); err != nil || opt.Decoupled != 1 {
		t.Errorf("base Decoupled lost: %d, %v", opt.Decoupled, err)
	}
	if opt, err := parseRunFlags(Options{Decoupled: 1}, []string{"tagpipe"}, "-tagpipe=false"); err != nil || opt.Decoupled != 0 {
		t.Errorf("-tagpipe=false: Decoupled %d, %v", opt.Decoupled, err)
	}

	for _, bad := range [][]string{{"-gran", "nibble"}, {"-engine", "jit"}, {"-tagpipe=2"}, {"-policy", "/nonexistent.conf"}} {
		if _, err := parseRunFlags(Options{}, all, bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// An explicit -gran overrides a -policy file's granularity whichever
// flag comes first; without -gran the file's line applies.
func TestBindFlagsGranOverridesPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "word.conf")
	if err := os.WriteFile(path, []byte("granularity word\nsource network\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	names := []string{"gran", "policy"}
	for _, c := range []struct {
		args []string
		want taint.Granularity
	}{
		{[]string{"-policy", path}, taint.Word},
		{[]string{"-gran", "byte", "-policy", path}, taint.Byte},
		{[]string{"-policy", path, "-gran", "byte"}, taint.Byte},
	} {
		opt, err := parseRunFlags(Options{}, names, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, gran := opt.ResolvePolicy(); gran != c.want {
			t.Errorf("%v: granularity %s, want %s", c.args, gran, c.want)
		}
	}
}
