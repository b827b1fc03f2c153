package mem

import (
	"testing"
)

// loadImage builds a memory shaped like a loaded program: region 0 (tag
// space), region 1 (data), region 2 (stack), with a data segment.
func loadImage(t *testing.T) *Memory {
	t.Helper()
	m := New()
	m.MapRegion(0, 0)
	m.MapRegion(1, 0)
	m.MapRegion(2, 0)
	if f := m.WriteBytes(Addr(1, 0x100), []byte("data segment contents")); f != nil {
		t.Fatal(f)
	}
	return m
}

func TestSnapshotRestoreRewindsWrites(t *testing.T) {
	m := loadImage(t)
	snap := m.Snapshot()
	m.EnableDirtyTracking()

	// Mutate the data segment, write a fresh heap page, taint a tag byte.
	if f := m.Write(Addr(1, 0x100), 8, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	if f := m.Write(Addr(1, 0x400000), 8, 42); f != nil {
		t.Fatal(f)
	}
	if f := m.Write(Addr(0, 0x20), 1, 0xff); f != nil {
		t.Fatal(f)
	}
	if m.DirtyPages() == 0 {
		t.Fatal("writes did not mark pages dirty")
	}

	n := m.Restore(snap)
	if n == 0 {
		t.Fatal("Restore restored no pages")
	}
	if m.DirtyPages() != 0 {
		t.Fatalf("dirty set not cleared: %d pages", m.DirtyPages())
	}
	got, f := m.ReadBytes(Addr(1, 0x100), 21)
	if f != nil {
		t.Fatal(f)
	}
	if string(got) != "data segment contents" {
		t.Fatalf("data segment not restored: %q", got)
	}
	for _, a := range []uint64{Addr(1, 0x400000), Addr(0, 0x20) &^ 7} {
		v, fault := m.Read(a, 8)
		if fault != nil {
			t.Fatal(fault)
		}
		if v != 0 {
			t.Fatalf("post-snapshot page at %#x not zeroed: %#x", a, v)
		}
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	m := loadImage(t)
	snap := m.Snapshot()
	m.EnableDirtyTracking()
	if f := m.Write(Addr(1, 0x100), 8, 0x1111111111111111); f != nil {
		t.Fatal(f)
	}
	// A second memory built from the snapshot must see the original
	// bytes, not the first memory's write.
	m2 := NewFromSnapshot(snap)
	got, f := m2.ReadBytes(Addr(1, 0x100), 4)
	if f != nil {
		t.Fatal(f)
	}
	if string(got) != "data" {
		t.Fatalf("snapshot mutated by source write: %q", got)
	}
}

func TestCopyOnWriteIsolatesGuests(t *testing.T) {
	base := loadImage(t)
	snap := base.Snapshot()
	g1 := NewFromSnapshot(snap)
	g2 := NewFromSnapshot(snap)

	// Both read the shared base.
	for i, g := range []*Memory{g1, g2} {
		got, f := g.ReadBytes(Addr(1, 0x100), 4)
		if f != nil {
			t.Fatal(f)
		}
		if string(got) != "data" {
			t.Fatalf("guest %d base read = %q", i, got)
		}
	}

	// g1 writes; g2 and the snapshot must not see it — including via
	// g2's software TLB, which must never have cached the shared frame.
	if f := g1.Write(Addr(1, 0x100), 1, 'X'); f != nil {
		t.Fatal(f)
	}
	v1, _ := g1.Read(Addr(1, 0x100), 1)
	if v1 != 'X' {
		t.Fatalf("g1 write lost: %c", v1)
	}
	v2, _ := g2.Read(Addr(1, 0x100), 1)
	if v2 != 'd' {
		t.Fatalf("g1 write leaked into g2: %c", v2)
	}

	// And the write must not survive g1's restore.
	g1.Restore(snap)
	v1, _ = g1.Read(Addr(1, 0x100), 1)
	if v1 != 'd' {
		t.Fatalf("g1 restore did not rewind COW page: %c", v1)
	}
}

func TestRestoreCostIsDirtyBounded(t *testing.T) {
	m := loadImage(t)
	// Touch many pages before the snapshot so the footprint is large.
	for i := 0; i < 256; i++ {
		if f := m.Write(Addr(1, uint64(i)*pageSize), 8, uint64(i)); f != nil {
			t.Fatal(f)
		}
	}
	snap := m.Snapshot()
	m.EnableDirtyTracking()
	// Dirty exactly three pages.
	for i := 0; i < 3; i++ {
		if f := m.Write(Addr(1, uint64(i)*pageSize), 8, ^uint64(0)); f != nil {
			t.Fatal(f)
		}
	}
	if n := m.Restore(snap); n != 3 {
		t.Fatalf("Restore touched %d pages, want 3 (O(dirty), not O(resident))", n)
	}
	for i := 0; i < 256; i++ {
		v, f := m.Read(Addr(1, uint64(i)*pageSize), 8)
		if f != nil {
			t.Fatal(f)
		}
		if v != uint64(i) {
			t.Fatalf("page %d content %#x after restore", i, v)
		}
	}
}

func TestZeroRegionPages(t *testing.T) {
	m := loadImage(t)
	// Tag bytes in region 0, data in region 1.
	if f := m.Write(Addr(0, 0x10), 1, 0x0f); f != nil {
		t.Fatal(f)
	}
	if f := m.Write(Addr(0, 0x2000), 1, 0x01); f != nil {
		t.Fatal(f)
	}
	if n := m.ZeroRegionPages(0); n != 2 {
		t.Fatalf("zeroed %d pages, want 2", n)
	}
	for _, off := range []uint64{0x10, 0x2000} {
		v, _ := m.Read(Addr(0, off&^7), 8)
		if v != 0 {
			t.Fatalf("tag byte at %#x survived ZeroRegionPages", off)
		}
	}
	// Region 1 untouched.
	got, _ := m.ReadBytes(Addr(1, 0x100), 4)
	if string(got) != "data" {
		t.Fatalf("ZeroRegionPages(0) touched region 1: %q", got)
	}
	// Idempotent and cheap when clean.
	if n := m.ZeroRegionPages(0); n != 0 {
		t.Fatalf("second clear zeroed %d pages, want 0", n)
	}
}

func TestZeroRegionPagesShadowsBaseFrames(t *testing.T) {
	m := loadImage(t)
	if f := m.Write(Addr(0, 0x10), 1, 0xaa); f != nil {
		t.Fatal(f)
	}
	snap := m.Snapshot()
	g := NewFromSnapshot(snap)
	// The guest sees the base tag byte; clearing must shadow it with a
	// private zero page, not mutate the shared base.
	if v, _ := g.Read(Addr(0, 0x10)&^7, 8); v == 0 {
		t.Fatal("base tag byte not visible through COW")
	}
	if n := g.ZeroRegionPages(0); n != 1 {
		t.Fatalf("zeroed %d pages, want 1", n)
	}
	if v, _ := g.Read(Addr(0, 0x10)&^7, 8); v != 0 {
		t.Fatalf("tag byte survived clear: %#x", v)
	}
	// The other guest and the snapshot still see the original.
	g2 := NewFromSnapshot(snap)
	if v, _ := g2.Read(Addr(0, 0x10)&^7, 8); v == 0 {
		t.Fatal("clear leaked into the shared snapshot")
	}
}

// The block engine's fixed-width store fast paths must participate in
// dirty tracking exactly like the generic Write — this is the
// lifecycle bug the differential reuse suite caught: a recycled guest
// whose stores all came through Write8/4/2/1 restored almost nothing.
func TestSizedWritersMarkDirty(t *testing.T) {
	m := New()
	m.MapRegion(1, 0)
	if f := m.WriteBytes(Addr(1, 0), make([]byte, 5*pageSize)); f != nil {
		t.Fatal(f)
	}
	s := m.Snapshot()
	g := NewFromSnapshot(s)
	stores := []func(){
		func() { g.Write8(Addr(1, 0*pageSize), 1) },
		func() { g.Write4(Addr(1, 1*pageSize), 1) },
		func() { g.Write2(Addr(1, 2*pageSize), 1) },
		func() { g.Write1(Addr(1, 3*pageSize), 1) },
	}
	for i, st := range stores {
		st()
		if got := g.DirtyPages(); got != i+1 {
			t.Fatalf("after sized store %d: dirty=%d, want %d", i, got, i+1)
		}
	}
	if n := g.Restore(s); n != 4 {
		t.Fatalf("Restore rewound %d pages, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if v, f := g.Read(Addr(1, uint64(i)*pageSize), 8); f != nil || v != 0 {
			t.Fatalf("page %d not rewound: v=%#x f=%v", i, v, f)
		}
	}
}
