package tagpipe

import (
	"errors"
	"math/rand"
	"testing"

	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/oracle"
	"shift/internal/taint"
)

// buildMachine assembles a program, maps the data regions and returns a
// machine with a tag space over region 0 (same fixture as the oracle's).
func buildMachine(t *testing.T, text []isa.Instruction, g taint.Granularity) (*machine.Machine, *taint.Space) {
	t.Helper()
	p := &isa.Program{Text: text}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	memory := mem.New()
	tags := taint.NewSpace(memory, g)
	memory.MapRegion(2, 0)
	m := machine.New(p, memory)
	return m, tags
}

func stepAll(m *machine.Machine, n int) *machine.Trap {
	for i := 0; i < n; i++ {
		if trap := m.Step(); trap != nil {
			return trap
		}
	}
	return nil
}

var dataAddr = mem.Addr(2, 0x100)

// A clean round trip must finish divergence-free, and the retirement log
// must have actually flowed.
func TestPipelineCleanRun(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 42},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
		{Op: isa.OpLd, Dest: 3, Src1: 1, Size: 8},
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 3},
	}
	for _, instrumented := range []bool{false, true} {
		m, tags := buildMachine(t, text, taint.Byte)
		p := New(Config{Tags: tags, Instrumented: instrumented})
		p.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("instrumented=%v: %v", instrumented, trap)
		}
		if err := p.Finish(m); err != nil {
			t.Fatalf("instrumented=%v: Finish: %v", instrumented, err)
		}
		p.Close()
		if got := p.Stats.Records.Load(); got != uint64(len(text)) {
			t.Errorf("instrumented=%v: %d records, want %d", instrumented, got, len(text))
		}
	}
}

// A store whose tag update went missing surfaces as a bitmap divergence.
// Detection is sink-granular: with no syscalls in the program it lands at
// Finish rather than at the next instruction boundary.
func TestPipelineCatchesStaleBitmap(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpMovl, Dest: 2, Imm: 7},
		{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8}, // clean store, no tag update follows
		{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
	}
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		m, tags := buildMachine(t, text, g)
		if err := tags.SetRange(dataAddr, 8); err != nil { // seeded bug: stale taint
			t.Fatal(err)
		}
		p := New(Config{Tags: tags, Instrumented: true})
		p.Attach(m)
		if trap := stepAll(m, len(text)); trap != nil {
			t.Fatalf("gran=%v: unexpected trap %v", g, trap)
		}
		err := p.Finish(m)
		p.Close()
		var d *oracle.Divergence
		if !errors.As(err, &d) || d.Kind != oracle.DivBitmap {
			t.Fatalf("gran=%v: Finish = %v, want DivBitmap", g, err)
		}
		if !d.Machine || d.Shadow {
			t.Errorf("gran=%v: machine=%v shadow=%v, want true/false", g, d.Machine, d.Shadow)
		}
		if p.Divergence() == nil {
			t.Errorf("gran=%v: Divergence() not latched", g)
		}
	}
}

// A phantom NaT token (no shadow taint accounting for it) surfaces at the
// next sink's register sweep — here, Finish.
func TestPipelineCatchesPhantomNaT(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: 3},
		{Op: isa.OpAddi, Dest: 2, Src1: 1, Imm: 1},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	p := New(Config{Tags: tags, Instrumented: true})
	p.Attach(m)
	if trap := m.Step(); trap != nil {
		t.Fatal(trap)
	}
	m.NaT[6] = true // seeded bug: token appears out of nowhere
	if trap := m.Step(); trap != nil {
		t.Fatalf("decoupled checks fired mid-run: %v (expected sink-granular detection)", trap)
	}
	err := p.Finish(m)
	p.Close()
	var d *oracle.Divergence
	if !errors.As(err, &d) || d.Kind != oracle.DivRegister || d.Reg != 6 {
		t.Fatalf("Finish = %v, want DivRegister on r6", err)
	}
}

// The reverse direction: shadow taint the machine lost (NaT clear where
// the reference says tainted) surfaces at the closing sweep too.
func TestPipelineCatchesDroppedTaint(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpMovl, Dest: 1, Imm: int64(dataAddr)},
		{Op: isa.OpLd, Dest: 2, Src1: 1, Size: 8}, // loads tainted data, NaT stays clear
		{Op: isa.OpAddi, Dest: 3, Src1: 2, Imm: 1},
		{Op: isa.OpNop},
	}
	m, tags := buildMachine(t, text, taint.Byte)
	if err := tags.SetRange(dataAddr, 8); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Tags: tags, Instrumented: true})
	p.Attach(m)
	p.HostTaint(dataAddr, 8) // the OS says the source is real
	if trap := stepAll(m, len(text)); trap != nil {
		t.Fatalf("unexpected trap %v", trap)
	}
	err := p.Finish(m)
	p.Close()
	var d *oracle.Divergence
	if !errors.As(err, &d) || d.Kind != oracle.DivRegister {
		t.Fatalf("Finish = %v, want DivRegister", err)
	}
	if d.Machine || !d.Shadow {
		t.Errorf("machine=%v shadow=%v, want false/true", d.Machine, d.Shadow)
	}
}

// The mechanical NaT rules keep per-record granularity: a broken rule in
// the log is detected when its batch fills, without waiting for a sink,
// and the producer surfaces it on the next retirement.
func TestPipelineNaTRulePerRecord(t *testing.T) {
	m, _ := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, taint.Byte)
	p := New(Config{})
	p.emit(rec{kind: rLoad, op: isa.OpLd, dest: 5, size: 8, flags: fNatAfter, pc: 7})
	for i := 1; i < batchRecs; i++ {
		p.emit(rec{kind: rClear, op: isa.OpMovl, dest: 1, pc: int32(8 + i)})
	}
	d := p.Divergence()
	if d == nil || d.Kind != oracle.DivNaTRule || d.Reg != 5 || d.PC != 7 {
		t.Fatalf("divergence after a full batch = %+v, want DivNaTRule on r5@pc7", d)
	}
	if drains := p.Stats.Drains.Load(); drains != 0 {
		t.Fatalf("%d drains, want detection without a sink", drains)
	}
	err := p.PostStep(m, &isa.Instruction{Op: isa.OpNop})
	if got, ok := err.(*oracle.Divergence); !ok || got != d {
		t.Fatalf("next PostStep = %v, want the latched divergence", err)
	}
}

// Host-effect notifications steer the committed shadow synchronously.
func TestPipelineHostEffects(t *testing.T) {
	p := New(Config{})
	defer p.Close()
	p.HostTaint(dataAddr, 4)
	if !p.st.loadTaint(dataAddr, 4) {
		t.Error("HostTaint did not mark the shadow")
	}
	p.HostUntaint(dataAddr, 4)
	if p.st.loadTaint(dataAddr, 4) {
		t.Error("HostUntaint did not clear the shadow")
	}
	p.HostTaint(dataAddr, 2)
	p.HostWrite(dataAddr, 4)
	if !p.st.loadTaint(dataAddr, 2) || p.st.loadTaint(dataAddr+2, 2) {
		t.Error("HostWrite did not preserve the shadow's sticky taint")
	}
}

// Spawn inheritance and the UnsafePreempt stand-down mirror the oracle.
func TestPipelineSpawn(t *testing.T) {
	p := New(Config{Instrumented: true, Tags: nil})
	p.st.checking = true // force: Tags==nil would disable
	p.st.regs(0).taint[isa.RegArg0+1] = true
	p.OnSpawn(0, 1)
	if !p.st.regs(1).taint[isa.RegArg0] {
		t.Error("child argument taint not inherited")
	}
	if !p.st.checking {
		t.Error("strong checks stood down without UnsafePreempt")
	}
	p.Close()

	u := New(Config{Instrumented: true, UnsafePreempt: true})
	u.st.checking = true
	u.st.regs(0).taint[isa.RegArg0+1] = true
	u.OnSpawn(0, 1)
	if u.st.checking || !u.st.concurrent {
		t.Error("strong checks still on after spawn under UnsafePreempt")
	}
	if !u.st.regs(1).taint[isa.RegArg0] {
		t.Error("child argument taint not inherited under UnsafePreempt")
	}
	u.Close()
}

// Where the batch is applied must not matter: the same record stream
// drained at seeded random points and drained once at the end leaves the
// same shadow state, and the counters account for every flush.
func TestPipelineBatchBoundaryInvariance(t *testing.T) {
	recs := makeRandomRecs(300, 99)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		once, split := New(Config{}), New(Config{})
		flushes, pending := uint64(0), 0
		for i := range recs {
			once.emit(recs[i])
			split.emit(recs[i])
			if pending++; pending == batchRecs {
				flushes, pending = flushes+1, 0
			}
			if rng.Intn(16) == 0 {
				split.drain()
				if pending > 0 {
					flushes, pending = flushes+1, 0
				}
			}
		}
		once.drain()
		split.drain()
		if pending > 0 {
			flushes++
		}
		d1, d2 := once.Divergence(), split.Divergence()
		if (d1 == nil) != (d2 == nil) || (d1 != nil && (d1.PC != d2.PC || d1.Kind != d2.Kind)) {
			t.Fatalf("seed %d: divergence disagreement: once=%v split=%v", seed, d1, d2)
		}
		compareStates(t, once.st, split.st)
		if got := split.Stats.Records.Load(); got != 300 {
			t.Errorf("seed %d: recorded %d records, want 300", seed, got)
		}
		if got := split.Stats.Segments.Load(); got != flushes {
			t.Errorf("seed %d: %d segments, want %d non-empty flushes", seed, got, flushes)
		}
	}
}

// makeRandomRecs builds a producer-faithful random record stream: the
// field combinations are the ones hook.go can actually emit (fNatAfter
// only on dest-writing kinds, fDeferred only on rLoadSpec, addresses
// drawn from a small pool so records overlap heavily).
func makeRandomRecs(n int, seed int64) []rec {
	rng := rand.New(rand.NewSource(seed))
	addrs := []uint64{0x100, 0x104, 0x108, 0x110, 0x118, 0x120}
	sizes := []uint8{1, 2, 4, 8}
	ops := []isa.Opcode{isa.OpAdd, isa.OpMov, isa.OpMovl, isa.OpLd, isa.OpLdS,
		isa.OpLdFill, isa.OpSt, isa.OpCmpxchg, isa.OpMovToCcv, isa.OpMovFromCcv, isa.OpSetNat}
	recs := make([]rec, 0, n)
	for i := 0; i < n; i++ {
		r := rec{
			op:   ops[rng.Intn(len(ops))],
			dest: uint8(rng.Intn(14)),
			s1:   uint8(rng.Intn(14)),
			s2:   uint8(rng.Intn(14)),
			size: sizes[rng.Intn(len(sizes))],
			tid:  int32(rng.Intn(3)),
			pc:   int32(i),
			addr: addrs[rng.Intn(len(addrs))],
		}
		switch rng.Intn(10) {
		case 0:
			r.kind = rClear
		case 1:
			r.kind = rCopy
		case 2:
			r.kind = rLoad
		case 3:
			r.kind = rLoadSpec
			if rng.Intn(2) == 0 {
				r.flags |= fDeferred
				r.flags |= fNatAfter // the legal deferred outcome
			}
		case 4:
			r.kind = rLoadFill
			r.size = 8
		case 5:
			r.kind = rStore
			r.dest = 0
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 6:
			r.kind = rCmpxchg
			if rng.Intn(2) == 0 {
				r.flags |= fCommitted
			}
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 7:
			r.kind = rCcvSet
			r.dest = 0
		case 8:
			r.kind = rCcvGet
		default:
			r.kind = rUnion2
		}
		// A sprinkling of NaT-after bits on dest-writing records: some
		// will be backed by shadow taint (pass), some not (the suspect
		// path), some break a mechanical rule (rLoad with NaT).
		if r.kind != rStore && r.kind != rCcvSet && r.dest != 0 && rng.Intn(12) == 0 {
			r.flags |= fNatAfter
		}
		recs = append(recs, r)
	}
	return recs
}

// compareStates asserts two shadow states are identical over every
// thread and every tracked unit.
func compareStates(t *testing.T, a, b *state) {
	t.Helper()
	for tid, ra := range a.threads {
		rb := b.regs(tid)
		if ra.taint != rb.taint || ra.ccv != rb.ccv {
			t.Fatalf("tid %d: register shadows differ", tid)
		}
	}
	for tid := range b.threads {
		if _, ok := a.threads[tid]; !ok && (b.threads[tid].taint != [isa.NumGR]bool{} || b.threads[tid].ccv) {
			t.Fatalf("tid %d: shadow only in one state", tid)
		}
	}
	seen := make(map[uint64]bool)
	for u, ma := range a.mem {
		seen[u] = true
		if mb := b.mem[u]; ma.taint != mb.taint || ma.hidden != mb.hidden {
			t.Fatalf("unit %#x: %+v vs %+v", u, ma, b.mem[u])
		}
	}
	for u, mb := range b.mem {
		if !seen[u] {
			if ma := a.mem[u]; ma.taint != mb.taint || ma.hidden != mb.hidden {
				t.Fatalf("unit %#x: only tracked in one state (%+v)", u, mb)
			}
		}
	}
}
