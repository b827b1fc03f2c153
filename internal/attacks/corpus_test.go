package attacks

import (
	"encoding/json"
	"testing"

	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/taint"
)

// corpusConfigs is the Matrix the corpus must hold under; -short keeps
// byte granularity only.
func corpusConfigs() []shift.Options {
	if testing.Short() {
		return Matrix(taint.Byte)
	}
	return Matrix(taint.Byte, taint.Word)
}

// TestCorpusMatrix is the corpus-wide acceptance gate: every scenario,
// benign and exploit, at both granularities, under the lockstep oracle,
// the decoupled tag pipeline, and selective instrumentation — zero
// missed detections and zero benign false positives.
func TestCorpusMatrix(t *testing.T) {
	for _, s := range Corpus() {
		for _, opt := range corpusConfigs() {
			s, opt := s, opt
			t.Run(s.Name+"/"+Label(opt), func(t *testing.T) {
				t.Parallel()
				o, err := EvaluateScenario(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				if o.Benign.Kind != VerdictSilent {
					t.Errorf("benign run not silent: %s (%s)", o.Benign.Kind, o.Benign.Detail)
				}
				if o.Exploit.Kind != s.Kind || o.Exploit.Policy != s.Expect {
					t.Errorf("exploit verdict = %s/%s, want %s/%s (%s)",
						o.Exploit.Kind, o.Exploit.Policy, s.Kind, s.Expect, o.Exploit.Detail)
				}
				if o.Unprotected.Kind != VerdictSilent {
					t.Errorf("unprotected exploit did not run clean: %s (%s)",
						o.Unprotected.Kind, o.Unprotected.Detail)
				}
				if !o.Detected() {
					t.Errorf("Detected() = false")
				}
			})
		}
	}
}

// TestCorpusChannels pins each scenario's violation channel
// attribution: the exploit's alert must carry (at least) the channel
// the scenario declares as its taint birth channel.
func TestCorpusChannels(t *testing.T) {
	for _, s := range Corpus() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			o, err := EvaluateScenario(s, shift.Options{Instrument: true})
			if err != nil {
				t.Fatal(err)
			}
			if o.Exploit.Channels&s.Channel == 0 {
				t.Errorf("exploit verdict channels = %s, want to include %s",
					o.Exploit.Channels, s.Channel)
			}
		})
	}
}

// TestChannelKeyedSuppression exercises the per-channel policy keying
// diagonal: keying a scenario's expected policy to the wrong channel
// must suppress the detection, keying it to the right channel must
// keep it. A suppressed L policy degrades to a plain fault (the NaT
// consumption still stops the guest); a suppressed H sink runs silent.
func TestChannelKeyedSuppression(t *testing.T) {
	cases := []struct {
		scn        *Scenario
		right      taint.Channel
		wrong      taint.Channel
		suppressed string // verdict kind when keyed to the wrong channel
	}{
		{scnOf(t, "bftpd"), taint.ChanNetwork, taint.ChanFile, VerdictFault},
		{scnOf(t, "gnu-tar"), taint.ChanFile, taint.ChanNetwork, VerdictSilent},
		{scnOf(t, "php-stats"), taint.ChanNetwork, taint.ChanArgs, VerdictSilent},
		{scnOf(t, "fmt-argv"), taint.ChanArgs, taint.ChanNetwork, VerdictFault},
	}
	for _, c := range cases {
		c := c
		t.Run(c.scn.Name, func(t *testing.T) {
			t.Parallel()
			key := func(ch taint.Channel) *policy.Config {
				conf := c.scn.Config().Clone()
				conf.Channels = map[string]taint.Channel{c.scn.Expect: ch}
				return conf
			}
			o, err := EvaluateScenario(c.scn, shift.Options{Instrument: true, Policy: key(c.right)})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Detected() {
				t.Errorf("keyed to %s: detection lost (exploit=%s/%s)",
					c.right, o.Exploit.Kind, o.Exploit.Policy)
			}
			o, err = EvaluateScenario(c.scn, shift.Options{Instrument: true, Policy: key(c.wrong)})
			if err != nil {
				t.Fatal(err)
			}
			if o.Exploit.Kind != c.suppressed {
				t.Errorf("keyed to %s: exploit verdict = %s/%s, want %s",
					c.wrong, o.Exploit.Kind, o.Exploit.Policy, c.suppressed)
			}
			if o.Exploit.Policy == c.scn.Expect {
				t.Errorf("keyed to %s: policy %s still attributed", c.wrong, c.scn.Expect)
			}
		})
	}
}

func scnOf(t *testing.T, program string) *Scenario {
	t.Helper()
	for _, s := range Corpus() {
		if s.Name == program {
			return s
		}
	}
	t.Fatalf("no corpus scenario %q", program)
	return nil
}

// TestVerdictKinds pins the trap-vs-sink split the harness reports:
// an L-policy detection must classify as a trap, an H-policy detection
// as a sink, and the two must never be conflated.
func TestVerdictKinds(t *testing.T) {
	for _, s := range Corpus() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			want := KindSink
			if s.Expect[0] == 'L' {
				want = KindTrap
			}
			if s.Kind != want {
				t.Fatalf("scenario kind %s disagrees with policy %s", s.Kind, s.Expect)
			}
			o, err := EvaluateScenario(s, shift.Options{Instrument: true})
			if err != nil {
				t.Fatal(err)
			}
			if o.Exploit.Kind != want {
				t.Errorf("exploit verdict kind = %s, want %s (%s)", o.Exploit.Kind, want, o.Exploit.Detail)
			}
		})
	}
}

// TestCorpusMetadata pins the corpus shape and that every scenario's
// metadata is JSON-serialisable (shiftattack -list -json).
func TestCorpusMetadata(t *testing.T) {
	corpus := Corpus()
	if len(corpus) != 14 {
		t.Fatalf("corpus has %d scenarios, want 14", len(corpus))
	}
	seen := map[string]bool{}
	for _, s := range corpus {
		if seen[s.Name] {
			t.Errorf("duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if s.Kind != KindSink && s.Kind != KindTrap {
			t.Errorf("%s: bad kind %q", s.Name, s.Kind)
		}
		if s.Channel == 0 {
			t.Errorf("%s: no birth channel", s.Name)
		}
		if s.Expect == "" || s.Source == "" {
			t.Errorf("%s: incomplete attack metadata", s.Name)
		}
		if _, err := json.Marshal(s.Meta()); err != nil {
			t.Errorf("%s: metadata not serialisable: %v", s.Name, err)
		}
	}
}
