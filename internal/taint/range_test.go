package taint

import (
	"testing"

	"shift/internal/mem"
)

func newFullSpace(g Granularity) *Space {
	m := mem.New()
	s := NewSpace(m, g)
	for r := uint64(1); r < 8; r++ {
		m.MapRegion(r, 0)
	}
	return s
}

// Regression: the old walk used `for a := start; a < addr+n; a += unit`,
// and addr+n wraps to a tiny value for addresses near the top of region 7
// (e.g. a negative guest length cast to uint64), so the loop body never
// ran and the taint update was silently skipped. Such ranges must now be
// rejected, and in-range updates near the top must still land.
func TestSetRangeOverflow(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		top := mem.Addr(7, mem.OffsetMask-15) // 16 bytes below the region top

		// A length that wraps addr+n past zero must error, not no-op.
		if err := s.SetRange(top, ^uint64(0)-7); err == nil {
			t.Errorf("%v: wrapping SetRange succeeded", g)
		}
		if tainted, err := s.Tainted(top, 16); err != nil || tainted {
			t.Errorf("%v: rejected range left taint behind: %v, %v", g, tainted, err)
		}

		// The legitimate range ending exactly at the region top works.
		if err := s.SetRange(top, 16); err != nil {
			t.Fatalf("%v: SetRange at region top: %v", g, err)
		}
		tainted, err := s.Tainted(top, 16)
		if err != nil {
			t.Fatalf("%v: Tainted at region top: %v", g, err)
		}
		if !tainted {
			t.Errorf("%v: taint at top of region 7 was silently dropped", g)
		}
		if n, err := s.CountTainted(top, 16); err != nil || n != 16/s.Gran.UnitBytes() {
			t.Errorf("%v: CountTainted at region top = %d, %v", g, n, err)
		}

		// One byte past the top has unimplemented bits: rejected.
		if err := s.SetRange(top, 17); err == nil {
			t.Errorf("%v: range past the implemented top succeeded", g)
		}
		if _, err := s.Tainted(mem.Addr(7, mem.OffsetMask)+1, 1); err == nil {
			t.Errorf("%v: Tainted with unimplemented start succeeded", g)
		}
	}
}

// Regression: with n == 0 and an unaligned addr, the old walk rounded
// start down to the unit base and the `a < addr+n` bound still admitted
// one iteration at word granularity, tainting (or clearing) a whole
// 8-byte unit for an empty range.
func TestSetRangeZeroLength(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		addr := mem.Addr(2, 0x1003) // unaligned inside an 8-byte unit

		if err := s.SetRange(addr, 0); err != nil {
			t.Fatalf("%v: empty SetRange: %v", g, err)
		}
		if tainted, err := s.Tainted(addr&^7, 8); err != nil || tainted {
			t.Errorf("%v: empty SetRange tainted the containing unit", g)
		}

		// The symmetric bug: an empty clear must not wipe real taint.
		if err := s.SetRange(addr&^7, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.ClearRange(addr, 0); err != nil {
			t.Fatalf("%v: empty ClearRange: %v", g, err)
		}
		if tainted, _ := s.Tainted(addr&^7, 8); !tainted {
			t.Errorf("%v: empty ClearRange wiped the containing unit", g)
		}

		if n, err := s.CountTainted(addr, 0); err != nil || n != 0 {
			t.Errorf("%v: CountTainted of empty range = %d, %v", g, n, err)
		}
	}
}

// PeekUnit must agree with Tainted and must not disturb the cache model.
func TestPeekUnit(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		s.Mem.Cache = mem.NewCache(16*1024, 64)
		addr := mem.Addr(3, 0x2345)
		if err := s.SetRange(addr, 1); err != nil {
			t.Fatal(err)
		}
		hits, misses := s.Mem.Cache.Hits, s.Mem.Cache.Misses
		got, err := s.PeekUnit(addr)
		if err != nil || !got {
			t.Errorf("%v: PeekUnit(tainted) = %v, %v", g, got, err)
		}
		if got, err := s.PeekUnit(addr + 8); err != nil || got {
			t.Errorf("%v: PeekUnit(clean) = %v, %v", g, got, err)
		}
		if s.Mem.Cache.Hits != hits || s.Mem.Cache.Misses != misses {
			t.Errorf("%v: PeekUnit perturbed the cache model", g)
		}
		if _, err := s.PeekUnit(mem.Addr(3, 0) | 1<<45); err == nil {
			t.Errorf("%v: PeekUnit with unimplemented bits succeeded", g)
		}
	}
}

// checkGroup asserts PeekGroup(addr) equals 64 PeekUnit calls over the
// group containing addr: when it reads, every unit must read the same
// bit; when it refuses, some unit must be unreadable.
func checkGroup(t *testing.T, s *Space, addr uint64) {
	t.Helper()
	unit := s.Gran.UnitBytes()
	base := addr &^ (GroupUnits*unit - 1)
	got, ok := s.PeekGroup(addr)
	var want uint64
	readable := true
	for i := uint64(0); i < GroupUnits; i++ {
		bit, err := s.PeekUnit(base + i*unit)
		if err != nil {
			readable = false
			continue
		}
		if bit {
			want |= 1 << i
		}
	}
	if ok && (!readable || got != want) {
		t.Fatalf("%v: PeekGroup(%#x) = %#x, PeekUnit gives %#x (all readable: %v)", s.Gran, addr, got, want, readable)
	}
	if !ok && readable {
		t.Fatalf("%v: PeekGroup(%#x) refused a group PeekUnit reads in full", s.Gran, addr)
	}
}

// PeekGroup must equal 64 PeekUnit calls: on groups with scattered
// taint, on a tag page never written (all zero), and at an address with
// unimplemented bits (refused). Like PeekUnit it leaves the cache model
// alone.
func TestPeekGroup(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		s.Mem.Cache = mem.NewCache(16*1024, 64)
		unit := g.UnitBytes()
		base := mem.Addr(3, 0x8000)
		for i, n := range []uint64{1, 3, 9, 70} {
			if err := s.SetRange(base+uint64(i*37)*unit+uint64(i), n); err != nil {
				t.Fatal(err)
			}
		}
		hits, misses := s.Mem.Cache.Hits, s.Mem.Cache.Misses
		for a := base; a < base+4*GroupUnits*unit; a += GroupUnits * unit / 2 {
			checkGroup(t, s, a)
		}
		if bits, ok := s.PeekGroup(base); !ok || bits == 0 {
			t.Errorf("%v: PeekGroup of a tainted group = %#x, %v", g, bits, ok)
		}
		far := mem.Addr(5, 0x8_0000_0000) // its tag page was never written
		if bits, ok := s.PeekGroup(far); !ok || bits != 0 {
			t.Errorf("%v: PeekGroup of a never-written tag page = %#x, %v; want 0, true", g, bits, ok)
		}
		checkGroup(t, s, far)
		if s.Mem.Cache.Hits != hits || s.Mem.Cache.Misses != misses {
			t.Errorf("%v: PeekGroup perturbed the cache model", g)
		}
		bad := mem.Addr(3, 0) | 1<<45
		if _, ok := s.PeekGroup(bad); ok {
			t.Errorf("%v: PeekGroup with unimplemented bits succeeded", g)
		}
		checkGroup(t, s, bad)
	}
}

// FuzzTagRanges drives SetRange/ClearRange/Tainted/CountTainted with
// arbitrary ranges: no call may panic, valid updates must read back, and
// invalid ranges must leave the bitmap untouched.
func FuzzTagRanges(f *testing.F) {
	f.Add(uint64(7)<<61|uint64(mem.OffsetMask-15), uint64(16), true)
	f.Add(uint64(7)<<61|uint64(mem.OffsetMask-15), ^uint64(0)-7, true)
	f.Add(uint64(2)<<61|0x1003, uint64(0), false)
	f.Add(uint64(1)<<61|0x500, uint64(64), true)
	f.Fuzz(func(t *testing.T, addr, n uint64, word bool) {
		if n > 1<<20 {
			n %= 1 << 20 // keep valid walks fast; huge n is rejected anyway
		}
		g := Byte
		if word {
			g = Word
		}
		s := newFullSpace(g)
		err := s.SetRange(addr, n)
		tainted, terr := s.Tainted(addr, n)
		if err != nil {
			// A rejected range must not have tainted anything it names
			// (when the query itself is answerable).
			if terr == nil && tainted {
				t.Fatalf("rejected SetRange(%#x, %d) left taint", addr, n)
			}
			return
		}
		if terr != nil {
			t.Fatalf("SetRange ok but Tainted errored: %v", terr)
		}
		if n > 0 && !tainted {
			t.Fatalf("SetRange(%#x, %d) ok but range reads clean", addr, n)
		}
		if n == 0 && tainted {
			t.Fatalf("empty SetRange(%#x, 0) tainted something", addr)
		}
		if n > 0 {
			checkGroup(t, s, addr)
			checkGroup(t, s, addr+n-1)
			unit := s.Gran.UnitBytes()
			wantUnits := (addr+n-1)/unit - addr/unit + 1
			if c, err := s.CountTainted(addr, n); err != nil || c != wantUnits {
				t.Fatalf("CountTainted = %d, %v, want %d", c, err, wantUnits)
			}
			if err := s.ClearRange(addr, n); err != nil {
				t.Fatalf("ClearRange after SetRange: %v", err)
			}
			if tainted, _ := s.Tainted(addr, n); tainted {
				t.Fatalf("ClearRange(%#x, %d) left taint", addr, n)
			}
			checkGroup(t, s, addr)
		}
	})
}
