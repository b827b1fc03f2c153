package trace

import (
	"testing"

	"shift/internal/asm"
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/metrics"
)

// benchProg is the same ALU/load/store/branch mix as the machine's
// headline BenchmarkStepThroughput (the no-hook fast path), so the two
// variants below read as a direct overhead comparison against it: hook
// attached, and hook attached through MultiHook (the oracle+trace shape).
func benchProg(b *testing.B) *isa.Program {
	b.Helper()
	p, err := asm.Assemble(`
	movl r10 = 2305843009213693952   ; region-1 scratch base
	movl r1 = 1000
	movl r2 = 0
loop:
	add r2 = r2, r1
	xor r3 = r2, r1
	shli r4 = r3, 3
	st8 [r10] = r4
	ld8 r5 = [r10]
	addi r1 = r1, -1
	cmpi.gt p6, p7 = r1, 0
	(p6) br loop
	mov r32 = r2
	syscall 1
`, asm.Options{})
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	return p
}

func benchRun(b *testing.B, p *isa.Program, hook machine.StepHook) {
	b.ReportAllocs()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		m := mem.New()
		m.MapRegion(0, 0)
		m.MapRegion(1, 0)
		m.MapRegion(2, 0)
		m.Cache = mem.NewCache(16*1024, 64)
		mach := machine.New(p, m)
		mach.OS = hookOS{}
		mach.GR[isa.RegSP] = int64(mem.Addr(2, 0x10000))
		mach.Hook = hook
		if trap := mach.Run(); trap != nil {
			b.Fatal(trap)
		}
		retired += mach.Retired
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "guest-instr/s")
	}
}

// BenchmarkStepThroughputTraced measures the full observability cost:
// tracer plus metrics on every retirement.
func BenchmarkStepThroughputTraced(b *testing.B) {
	h := NewMachineHook(New(0), metrics.NewRegistry())
	benchRun(b, benchProg(b), h)
}

// BenchmarkStepThroughputMultiHooked measures the MultiHook fan-out
// shape a combined oracle+trace run uses (here with the tracer twice —
// the dispatch cost is what's being measured).
func BenchmarkStepThroughputMultiHooked(b *testing.B) {
	h1 := NewMachineHook(New(0), nil)
	h2 := NewMachineHook(nil, metrics.NewRegistry())
	benchRun(b, benchProg(b), machine.MultiHook{h1, h2})
}
