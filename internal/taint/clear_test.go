package taint

import (
	"testing"

	"shift/internal/mem"
)

// Clear must drop every tag — host-set ranges and guest-style direct
// bitmap writes alike — without touching non-tag memory.
func TestClearDropsAllTags(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		m := mem.New()
		m.MapRegion(1, 0)
		s := NewSpace(m, g)

		if f := m.Write(mem.Addr(1, 0x500), 8, 0x1234); f != nil {
			t.Fatal(f)
		}
		if err := s.SetRange(mem.Addr(1, 0x500), 16); err != nil {
			t.Fatal(err)
		}
		// A guest tag-update sequence writes the bitmap directly, not
		// through the Space — Clear must catch those too.
		tb, bit := g.TagAddr(mem.Addr(1, 0x9000))
		if f := m.Write(tb, 1, uint64(1)<<bit); f != nil {
			t.Fatal(f)
		}

		for _, a := range []uint64{mem.Addr(1, 0x500), mem.Addr(1, 0x9000)} {
			tainted, err := s.Tainted(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !tainted {
				t.Fatalf("gran %v: setup failed, %#x untainted", g, a)
			}
		}

		if n := s.Clear(); n == 0 {
			t.Fatalf("gran %v: Clear zeroed no pages with live tags", g)
		}
		for _, a := range []uint64{mem.Addr(1, 0x500), mem.Addr(1, 0x9000)} {
			tainted, err := s.Tainted(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tainted {
				t.Fatalf("gran %v: %#x still tainted after Clear", g, a)
			}
		}
		// Data untouched.
		if v, _ := m.Read(mem.Addr(1, 0x500), 8); v != 0x1234 {
			t.Fatalf("gran %v: Clear corrupted data: %#x", g, v)
		}
		// Second clear finds nothing.
		if n := s.Clear(); n != 0 {
			t.Fatalf("gran %v: second Clear zeroed %d pages, want 0", g, n)
		}
	}
}

// The clear's cost tracks tagged bytes, not the data footprint: a large
// untainted working set adds nothing to the sweep.
func TestClearCostTracksTags(t *testing.T) {
	m := mem.New()
	m.MapRegion(1, 0)
	s := NewSpace(m, Byte)
	// 2 MiB of data, 8 tainted bytes.
	big := make([]byte, 1<<21)
	for i := range big {
		big[i] = byte(i)
	}
	if f := m.WriteBytes(mem.Addr(1, 0), big); f != nil {
		t.Fatal(f)
	}
	if err := s.SetRange(mem.Addr(1, 64), 8); err != nil {
		t.Fatal(err)
	}
	if n := s.Clear(); n != 1 {
		t.Fatalf("Clear touched %d pages for 8 tagged bytes, want 1", n)
	}
}
