package shift

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"shift/internal/machine"
	"shift/internal/policy"
	"shift/internal/taint"
)

// BindFlags registers the named run-configuration flags on fs; parsing
// writes each value straight into opt. A flag's default is opt's value
// at bind time, so a command sets its own defaults (shiftd's
// -tagpipe=true) by passing a pre-filled opt. Every command spells a
// shared setting with the same name, default and accepted values, and
// a bad value fails in fs.Parse as a usage error.
//
// The names are gran, policy, enhancements, engine, tagpipe, selective,
// oracle, serialized-tags, unsafe-preempt, quantum, optimize,
// per-function, per-use and guards. An explicit -gran overrides a
// -policy file's granularity line, in either order. An unknown name
// panics: it is a programming error, not a usage error.
func BindFlags(fs *flag.FlagSet, opt *Options, names ...string) {
	rf := &runFlags{opt: opt}
	for _, name := range names {
		switch name {
		case "gran":
			fs.Var((*granFlag)(rf), name, "tracking `granularity`: byte or word")
		case "policy":
			fs.Var((*policyFlag)(rf), name, "policy configuration `file`")
		case "enhancements":
			fs.Var((*enhanceFlag)(rf), name, "enable the proposed setnat/clrnat and cmp.na enhancement instructions")
		case "engine":
			fs.Var((*engineFlag)(rf), name, "execution `engine` for unhooked runs: block (cached translated basic blocks) or interp (reference interpreter); checked, traced, metered and profiled runs always interpret")
		case "tagpipe":
			fs.Var((*tagpipeFlag)(rf), name, "check instrumented runs with the decoupled tag pipeline (false = inline)")
		case "selective":
			fs.BoolVar(&opt.Selective, name, opt.Selective, "instrument only statically taint-reachable sites")
		case "oracle":
			fs.BoolVar(&opt.Oracle, name, opt.Oracle, "cross-check tag state against a lockstep reference engine")
		case "serialized-tags":
			fs.BoolVar(&opt.SerializedTags, name, opt.SerializedTags, "serialize byte-level bitmap updates with a cmpxchg retry loop")
		case "unsafe-preempt":
			fs.BoolVar(&opt.UnsafePreempt, name, opt.UnsafePreempt, "allow preemption between a data store and its tag update (reproduces the paper's §4.4 hazard)")
		case "quantum":
			fs.Uint64Var(&opt.Quantum, name, opt.Quantum, "scheduler time slice in cycles for threaded guests (0 = default)")
		case "optimize":
			fs.BoolVar(&opt.Optimize, name, opt.Optimize, "enable the §6.4 compiler optimizations")
		case "per-function":
			fs.BoolVar(&opt.NaTPerFunction, name, opt.NaTPerFunction, "regenerate the NaT source per function")
		case "per-use":
			fs.BoolVar(&opt.NaTPerUse, name, opt.NaTPerUse, "regenerate the NaT source per tainting site")
		case "guards":
			fs.BoolVar(&opt.UserGuards, name, opt.UserGuards, "insert user-level violation guards")
		default:
			panic("shift: no run flag " + name)
		}
	}
}

// runFlags is the parse state the flag values share: -gran and -policy
// must see each other whichever comes first. The flag types below are
// views of it; their zero values (opt == nil) are what flag.PrintDefaults
// compares a default against.
type runFlags struct {
	opt     *Options
	granSet bool           // -gran was given
	path    string         // -policy file
	loaded  *policy.Config // parsed -policy file
}

type (
	granFlag    runFlags
	policyFlag  runFlags
	enhanceFlag runFlags
	engineFlag  runFlags
	tagpipeFlag runFlags
)

func (f *granFlag) String() string {
	if f.opt == nil {
		return ""
	}
	return f.opt.Granularity.String()
}

func (f *granFlag) Set(s string) error {
	switch s {
	case "byte":
		f.opt.Granularity = taint.Byte
	case "word":
		f.opt.Granularity = taint.Word
	default:
		return fmt.Errorf("unknown granularity %q (want byte or word)", s)
	}
	f.granSet = true
	if f.loaded != nil {
		f.loaded.Granularity = f.opt.Granularity
	}
	return nil
}

func (f *policyFlag) String() string { return f.path }

func (f *policyFlag) Set(path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	conf, err := policy.Parse(string(text))
	if err != nil {
		return err
	}
	if f.granSet {
		conf.Granularity = f.opt.Granularity
	}
	f.path, f.loaded, f.opt.Policy = path, conf, conf
	return nil
}

// allEnhancements is the feature set -enhancements switches on.
var allEnhancements = machine.Features{SetClrNaT: true, NaTAwareCmp: true}

func (f *enhanceFlag) IsBoolFlag() bool { return true }

func (f *enhanceFlag) String() string {
	return strconv.FormatBool(f.opt != nil && f.opt.Features == allEnhancements)
}

// parseBool parses a switch's value, failing as the flag package's own
// bool flags do.
func parseBool(s string) (bool, error) {
	on, err := strconv.ParseBool(s)
	if err != nil {
		return false, errors.New("parse error")
	}
	return on, nil
}

func (f *enhanceFlag) Set(s string) error {
	on, err := parseBool(s)
	if err != nil {
		return err
	}
	f.opt.Features = machine.Features{}
	if on {
		f.opt.Features = allEnhancements
	}
	return nil
}

func (f *engineFlag) String() string {
	if f.opt == nil {
		return ""
	}
	return f.opt.Engine.String()
}

func (f *engineFlag) Set(s string) error {
	e, ok := machine.EngineFromString(s)
	if !ok {
		return fmt.Errorf("unknown engine %q (want block or interp)", s)
	}
	f.opt.Engine = e
	return nil
}

func (f *tagpipeFlag) IsBoolFlag() bool { return true }

func (f *tagpipeFlag) String() string {
	return strconv.FormatBool(f.opt != nil && f.opt.Decoupled != 0)
}

func (f *tagpipeFlag) Set(s string) error {
	on, err := parseBool(s)
	if err != nil {
		return err
	}
	f.opt.Decoupled = 0
	if on {
		f.opt.Decoupled = 1
	}
	return nil
}
