package bench

import (
	"testing"

	"shift/internal/shift"
	"shift/internal/workload"
)

// A Decoupled base routes instrumented measurement runs through the decoupled
// pipeline without changing their verdicts or architectural outcome: a
// benchmark must complete clean and produce the same guest output and
// retirement count as the inline configuration. (Cycle counts may
// differ only through the simulated cost model being identical — the
// pipeline runs on host threads, off the guest clock — so they are
// compared too.)
func TestTagpipeWiring(t *testing.T) {
	b := workload.All()[0]
	scale := b.RefScale / 64
	if scale < 64 {
		scale = 64
	}
	cfg := ByteUnsafe
	inline, err := Harness{}.RunBenchmark(b, scale, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := Harness{Base: shift.Options{Decoupled: 1}}.RunBenchmark(b, scale, &cfg)
	if err != nil {
		t.Fatalf("decoupled run: %v", err)
	}
	if piped.Stdout != inline.Stdout || piped.Retired != inline.Retired || piped.Cycles != inline.Cycles {
		t.Errorf("decoupled run diverged: stdout %q vs %q, retired %d vs %d, cycles %d vs %d",
			piped.Stdout, inline.Stdout, piped.Retired, inline.Retired, piped.Cycles, inline.Cycles)
	}
}
