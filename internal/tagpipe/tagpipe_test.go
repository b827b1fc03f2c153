package tagpipe

import (
	"errors"
	"math/bits"
	"math/rand"
	"sort"
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
// Finish rather than at the next instruction boundary. Stale units sit
// on two shadow pages and in two words of one page, stored highest
// first; the sweep must report the lowest.
func TestPipelineCatchesStaleBitmap(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		ub := g.UnitBytes()
		low := dataAddr                     // page 0, word 4 (byte) / 0 (word)
		nextWord := dataAddr + 64*ub        // same page, next word
		nextPage := dataAddr + pageUnits*ub // next shadow page
		text := []isa.Instruction{
			{Op: isa.OpMovl, Dest: 1, Imm: int64(nextPage)},
			{Op: isa.OpMovl, Dest: 5, Imm: int64(nextWord)},
			{Op: isa.OpMovl, Dest: 6, Imm: int64(low)},
			{Op: isa.OpMovl, Dest: 2, Imm: 7},
			// Clean stores, no tag updates follow.
			{Op: isa.OpSt, Src1: 1, Src2: 2, Size: 8},
			{Op: isa.OpSt, Src1: 5, Src2: 2, Size: 8},
			{Op: isa.OpSt, Src1: 6, Src2: 2, Size: 8},
			{Op: isa.OpAdd, Dest: 4, Src1: 2, Src2: 2},
		}
		m, tags := buildMachine(t, text, g)
		// Seeded bug: stale taint under all three stores, the lowest
		// one three bytes into its store.
		for _, r := range [][2]uint64{{nextPage, 8}, {nextWord + 5, 1}, {low + 6, 1}, {low + 3, 1}} {
			if err := tags.SetRange(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
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
		if want := (low + 3) &^ (ub - 1); d.Addr != want {
			t.Errorf("gran=%v: divergent unit %#x, want the lowest stale unit %#x", g, d.Addr, want)
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
	p.emit(rec{kind: isa.FlowLoad, op: isa.OpLd, dest: 5, size: 8, flags: fNatAfter, pc: 7})
	for i := 1; i < batchRecs; i++ {
		p.emit(rec{kind: isa.FlowClear, op: isa.OpMovl, dest: 1, pc: int32(8 + i)})
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

// refUnit is one unit of the per-unit reference shadow.
type refUnit struct{ taint, hidden bool }

// refShadow is a per-unit map shadow with a sorted per-unit sweep, the
// oracle's layout: the reference the paged shadow and its word-wise
// sweep must agree with (same known units, same first divergence, same
// UnitChecks).
type refShadow struct {
	unit uint64
	mem  map[uint64]refUnit
}

func (r *refShadow) each(addr, n uint64, fn func(u uint64)) {
	for u := addr &^ (r.unit - 1); u < (addr+n-1)&^(r.unit-1)+r.unit; u += r.unit {
		fn(u)
	}
}

func (r *refShadow) setMem(addr uint64, size int, t, auth bool) {
	r.each(addr, uint64(size), func(u uint64) { r.mem[u] = refUnit{taint: t, hidden: !auth} })
}

func (r *refShadow) hostSet(addr, n uint64, t bool) {
	r.each(addr, n, func(u uint64) { r.mem[u] = refUnit{taint: t} })
}

func (r *refShadow) hostWrite(tags *taint.Space, addr, n uint64) {
	r.each(addr, n, func(u uint64) {
		mu := r.mem[u]
		if mu.hidden {
			if bit, err := tags.PeekUnit(u); err == nil {
				mu = refUnit{taint: bit}
			}
		}
		r.mem[u] = mu
	})
}

// sweep is the per-unit sweep: sort every non-hidden unit, peek each.
func (r *refShadow) sweep(tags *taint.Space) (d *oracle.Divergence, checks uint64) {
	var units []uint64
	for u, mu := range r.mem {
		if !mu.hidden {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, u := range units {
		bit, err := tags.PeekUnit(u)
		if err != nil {
			continue
		}
		checks++
		if sh := r.mem[u].taint; bit != sh {
			return &oracle.Divergence{Kind: oracle.DivBitmap, Addr: u, Machine: bit, Shadow: sh}, checks
		}
	}
	return nil, checks
}

// The word-wise sweep over the paged shadow must report exactly what the
// per-unit map sweep reports. Seeded random shadows mix units crossing
// word and page boundaries, hidden units, units the bitmap cannot
// represent (unimplemented bits, and a region-0 bound cutting through a
// tag group) and 0-3 bitmap bits flipped under known units.
func TestPipelineSweepMatchesPerUnit(t *testing.T) {
	for _, g := range []taint.Granularity{taint.Byte, taint.Word} {
		ub := g.UnitBytes()
		anchors := []uint64{
			mem.Addr(2, 0x40000),                // page boundary
			mem.Addr(2, 0x40000+64*ub),          // word boundary
			mem.Addr(2, 0x40000+3*pageUnits*ub), // a later page
			mem.Addr(3, 0x1000),                 // another region
			mem.Addr(3, 0) | 1<<40,              // unimplemented bits
		}
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, tags := buildMachine(t, []isa.Instruction{{Op: isa.OpNop}}, g)
			m.Mem.MapRegion(3, 0)
			st := newState(Config{Tags: tags, Instrumented: true})
			ref := &refShadow{unit: ub, mem: make(map[uint64]refUnit)}
			addr := func() uint64 {
				a := anchors[rng.Intn(len(anchors))]
				return a + uint64(rng.Intn(300))*ub - 150*ub + uint64(rng.Intn(int(ub)))
			}
			for op := 0; op < 60; op++ {
				switch rng.Intn(4) {
				case 0, 1:
					size := 1 << rng.Intn(4)
					a := addr() &^ uint64(size-1)
					tnt, auth := rng.Intn(2) == 0, rng.Intn(3) != 0
					st.setMem(a, size, tnt, auth)
					ref.setMem(a, size, tnt, auth)
				case 2:
					a, n, tnt := addr(), uint64(1+rng.Intn(200)), rng.Intn(2) == 0
					st.hostSet(a, n, tnt)
					ref.hostSet(a, n, tnt)
				default:
					a, n := addr(), uint64(1+rng.Intn(200))
					if rng.Intn(2) == 0 { // give hidden units a bit to adopt
						_ = tags.SetRange(a, n)
					}
					st.hostWrite(tags, a, n)
					ref.hostWrite(tags, a, n)
				}
			}
			got := knownUnits(st)
			if len(got) != len(ref.mem) {
				t.Fatalf("%v seed %d: %d known units, reference %d", g, seed, len(got), len(ref.mem))
			}
			var known []uint64
			for u, mu := range ref.mem {
				if got[u] != mu {
					t.Fatalf("%v seed %d: unit %#x = %+v, reference %+v", g, seed, u, got[u], mu)
				}
				known = append(known, u)
			}
			sort.Slice(known, func(i, j int) bool { return known[i] < known[j] })
			// A bitmap that agrees with the shadow, then 0-3 flips.
			for _, u := range known {
				if ref.mem[u].taint {
					_ = tags.SetRange(u, ub)
				} else {
					_ = tags.ClearRange(u, ub)
				}
			}
			for f := rng.Intn(4); f > 0 && len(known) > 0; f-- {
				u := known[rng.Intn(len(known))]
				if bit, err := tags.PeekUnit(u); err == nil {
					if bit {
						_ = tags.ClearRange(u, ub)
					} else {
						_ = tags.SetRange(u, ub)
					}
				}
			}
			if seed%3 == 0 && len(known) > 0 {
				// Bound region 0 inside some known unit's tag group.
				tb, _ := g.TagAddr(known[rng.Intn(len(known))])
				m.Mem.MapRegion(0, mem.Offset(tb)+uint64(rng.Intn(8)))
			}
			var stats Stats
			d := st.sweep(tags, m, "test", &stats)
			want, checks := ref.sweep(tags)
			if (d == nil) != (want == nil) {
				t.Fatalf("%v seed %d: sweep = %v, reference %v", g, seed, d, want)
			}
			if d != nil && (d.Kind != want.Kind || d.Addr != want.Addr || d.Machine != want.Machine || d.Shadow != want.Shadow) {
				t.Fatalf("%v seed %d: sweep reports %#x machine=%v shadow=%v, reference %#x machine=%v shadow=%v",
					g, seed, d.Addr, d.Machine, d.Shadow, want.Addr, want.Machine, want.Shadow)
			}
			if got := stats.UnitChecks.Load(); got != checks {
				t.Fatalf("%v seed %d: %d unit checks, reference %d", g, seed, got, checks)
			}
		}
	}
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
// only on dest-writing kinds, fDeferred only on isa.FlowLoadSpec, addresses
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
			r.kind = isa.FlowClear
		case 1:
			r.kind = isa.FlowCopy
		case 2:
			r.kind = isa.FlowLoad
		case 3:
			r.kind = isa.FlowLoadSpec
			if rng.Intn(2) == 0 {
				r.flags |= fDeferred
				r.flags |= fNatAfter // the legal deferred outcome
			}
		case 4:
			r.kind = isa.FlowFill
			r.size = 8
		case 5:
			r.kind = isa.FlowStore
			r.dest = 0
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 6:
			r.kind = isa.FlowCmpxchg
			if rng.Intn(2) == 0 {
				r.flags |= fCommitted
			}
			if rng.Intn(2) == 0 {
				r.flags |= fAuth
			}
		case 7:
			r.kind = isa.FlowCcvSet
			r.dest = 0
		case 8:
			r.kind = isa.FlowCcvGet
		default:
			r.kind = isa.FlowUnion
		}
		// A sprinkling of NaT-after bits on dest-writing records: some
		// will be backed by shadow taint (pass), some not (the suspect
		// path), some break a mechanical rule (isa.FlowLoad with NaT).
		if r.kind != isa.FlowStore && r.kind != isa.FlowCcvSet && r.dest != 0 && rng.Intn(12) == 0 {
			r.flags |= fNatAfter
		}
		recs = append(recs, r)
	}
	return recs
}

// knownUnits flattens a paged shadow into the per-unit reference form:
// every known unit, by address.
func knownUnits(st *state) map[uint64]refUnit {
	out := make(map[uint64]refUnit)
	for _, kp := range st.sorted {
		for w, known := range kp.pg.known {
			for rest := known; rest != 0; rest &= rest - 1 {
				i := bits.TrailingZeros64(rest)
				u := (kp.key<<pageShift | uint64(w)<<6 | uint64(i)) << st.shift
				out[u] = refUnit{
					taint:  kp.pg.taint[w]>>i&1 != 0,
					hidden: kp.pg.hidden[w]>>i&1 != 0,
				}
			}
		}
	}
	return out
}

// compareStates asserts two shadow states are identical over every
// thread and every unit: the same units known, with the same taint and
// hidden bits.
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
	ua, ub := knownUnits(a), knownUnits(b)
	for u, ma := range ua {
		if mb, ok := ub[u]; !ok || ma != mb {
			t.Fatalf("unit %#x: %+v vs %+v (known in second: %v)", u, ma, mb, ok)
		}
	}
	for u, mb := range ub {
		if _, ok := ua[u]; !ok {
			t.Fatalf("unit %#x: only known in the second state (%+v)", u, mb)
		}
	}
}
