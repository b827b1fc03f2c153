package shift

import (
	"testing"

	"shift/internal/taint"
)

// FuzzDecoupledLockstep explores (program seed, tainted input,
// granularity, lag-window size) with BOTH checkers live in
// one run: the inline oracle cross-checks every retired instruction
// while the decoupled pipeline re-propagates the same stream
// asynchronously and re-checks at sinks. Tiny windows (down to one
// record per segment) force constant producer stalls and drains, so the
// ring's backpressure and the commit ordering are under fuzz along with
// the taint semantics. Any trap, alert, or divergence from either
// checker is a finding.
func FuzzDecoupledLockstep(f *testing.F) {
	f.Add(int64(1), []byte("tainted input bytes"), false, uint8(0))
	f.Add(int64(7), []byte{0xff, 0x00, 0x80, 0x7f}, true, uint8(1))
	f.Add(int64(42), []byte("0123456789abcdef0123456789abcdef"), false, uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, input []byte, word bool, window uint8) {
		if len(input) == 0 {
			input = []byte{1}
		}
		if len(input) > 64 {
			input = input[:64]
		}
		g := taint.Byte
		if word {
			g = taint.Word
		}
		src := generate(seed)
		world := NewWorld()
		world.NetIn = input
		res, err := BuildAndRun([]Source{{Name: "fuzz.mc", Text: src}}, world, Options{
			Instrument:      true,
			Granularity:     g,
			Oracle:          true,
			Decoupled:       1,
			DecoupledWindow: 1 + int(window)%64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("seed %d gran=%v: %v\n%s", seed, g, res.Trap, src)
		}
		if res.Alert != nil {
			t.Fatalf("seed %d gran=%v: false positive: %v\n%s", seed, g, res.Alert, src)
		}
		if res.Oracle.Stats.UnitChecks == 0 {
			t.Fatalf("seed %d gran=%v: oracle idle", seed, g)
		}
		if res.Pipe.Stats.Records.Load() == 0 {
			t.Fatalf("seed %d gran=%v: pipeline idle", seed, g)
		}
		if res.Pipe.Divergence() != nil {
			t.Fatalf("seed %d gran=%v: pipeline divergence: %v\n%s", seed, g, res.Pipe.Divergence(), src)
		}
	})
}
