// Snapshot/restore: the machinery that lets one loaded program image
// serve thousands of sequential (and, across pool guests, concurrent)
// runs without re-loading — the unlock for the pooled-guest server
// (cmd/shiftd) and for fuzzing throughput.
//
// A Snapshot is an immutable copy of a memory's resident pages plus its
// region configuration, taken once per program text right after load.
// Guests share it two ways:
//
//   - NewFromSnapshot builds a fresh Memory whose page table starts
//     empty over the snapshot's frames as a read-only base layer. Reads
//     of a base page serve from the shared frame directly; the first
//     write copies the frame up into the guest's private page table
//     (copy-on-write at 4 KiB granularity). The software TLB only ever
//     caches private frames, so a cached translation can never leak a
//     write into the shared base.
//
//   - Restore rewinds a dirty-tracked Memory to its snapshot in
//     O(dirty pages): every write since the last restore marks its page
//     in a dirty set, and restore copies each dirty page's content back
//     from the base (or zeroes it, when the page did not exist at
//     snapshot time) in place. Frames are never deallocated, so the TLB
//     stays coherent across restores with no invalidation protocol.
package mem

import "sort"

// Snapshot is an immutable image of a memory's state: resident page
// contents and region configuration. Build one with Memory.Snapshot and
// share it freely across goroutines — nothing mutates it after capture.
type Snapshot struct {
	frames map[uint64]*[pageSize]byte
	// keysByRegion buckets the frame keys, so region-scoped sweeps over
	// the base layer (ZeroRegionPages) cost O(that region's pages).
	keysByRegion [8][]uint64
	mapped       [8]bool
	limit        [8]uint64
	bound        [8]uint64
	touched      uint64
}

// Snapshot captures the memory's current state. Page contents are
// deep-copied, so later writes through the source memory do not alter
// the snapshot. Pages inherited from this memory's own base layer (if
// it was built by NewFromSnapshot) are included by reference — they are
// immutable already.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		frames:  make(map[uint64]*[pageSize]byte, len(m.pages)+len(m.base)),
		mapped:  m.mapped,
		limit:   m.limit,
		bound:   m.bound,
		touched: m.touched,
	}
	for key, p := range m.base {
		s.frames[key] = p
	}
	for key, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		s.frames[key] = cp
	}
	for key := range s.frames {
		r := pageRegion(key) & 7
		s.keysByRegion[r] = append(s.keysByRegion[r], key)
	}
	return s
}

// NewFromSnapshot builds a fresh Memory over the snapshot: region
// configuration restored, the snapshot's frames installed as a shared
// read-only base layer, and dirty-page tracking enabled so Restore runs
// in O(pages written). The caller attaches its own Cache if the cycle
// model needs one.
func NewFromSnapshot(s *Snapshot) *Memory {
	m := New()
	m.mapped = s.mapped
	m.limit = s.limit
	m.bound = s.bound
	m.base = s.frames
	m.baseKeys = s.keysByRegion
	m.EnableDirtyTracking()
	return m
}

// EnableDirtyTracking starts recording which pages are written, the
// prerequisite for Restore. Idempotent; the dirty set starts empty.
func (m *Memory) EnableDirtyTracking() {
	if m.dirty == nil {
		m.dirty = make(map[uint64]struct{})
	}
	m.track = true
	m.lastDirty = ^uint64(0)
}

// DirtyPages returns the number of pages written since the last Restore
// (or since EnableDirtyTracking).
func (m *Memory) DirtyPages() int { return len(m.dirty) }

// markDirty records a page write. The one-entry key cache absorbs the
// common case of consecutive writes landing on one page, keeping the
// map insert off the hot store path.
func (m *Memory) markDirty(key uint64) {
	if key == m.lastDirty {
		return
	}
	m.lastDirty = key
	m.dirty[key] = struct{}{}
}

// Restore rewinds every page written since the last restore to its
// snapshot content: pages present in the snapshot are copied back,
// pages born after it are zeroed. Contents are restored in place —
// frames are never deallocated — so software-TLB entries stay valid.
// Region configuration is restored and the cache model (if any) is
// cleared, which matches the snapshot exactly when it was captured
// before first execution (the pool's usage). It returns the number of
// pages restored; requires EnableDirtyTracking (NewFromSnapshot enables
// it). The snapshot must describe this memory's load state — normally
// the one the memory was built from.
func (m *Memory) Restore(s *Snapshot) int {
	n := 0
	for key := range m.dirty {
		p := m.pages[key]
		if p == nil {
			// Dirtied via the base-layer copy-up path but since removed?
			// Cannot happen — pages are never deallocated — but a dirty
			// key with no private frame has nothing to restore.
			continue
		}
		if b := s.frames[key]; b != nil {
			*p = *b
		} else {
			clear(p[:])
		}
		n++
		delete(m.dirty, key)
	}
	m.lastDirty = ^uint64(0)
	m.mapped = s.mapped
	m.limit = s.limit
	m.bound = s.bound
	if m.Cache != nil {
		m.Cache.Reset()
	}
	return n
}

// pageRegion returns the region number a page key belongs to.
func pageRegion(key uint64) uint64 { return key >> (RegionShift - pageBits) }

// RegionDigest returns an FNV-1a digest of the region's nonzero
// resident pages (key then content, keys ascending). All-zero and
// absent pages hash identically, so two memories with different
// COW/private page layouts but equal contents digest equal — the
// property the differential reuse suite needs to compare tag bitmaps
// between a recycled guest and a fresh machine.
func (m *Memory) RegionDigest(region uint64) uint64 {
	keys := make([]uint64, 0, len(m.regionKeys[region&7])+len(m.baseKeys[region&7]))
	keys = append(keys, m.regionKeys[region&7]...)
	for _, key := range m.baseKeys[region&7] {
		if m.pages[key] == nil {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, key := range keys {
		p := m.pages[key]
		if p == nil {
			p = m.base[key]
		}
		if *p == ([pageSize]byte{}) {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (key >> shift & 0xff)) * prime64
		}
		for _, b := range p {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// ZeroRegionPages zeroes every resident page of the region and returns
// how many pages held a nonzero byte. Cost is proportional to the
// region's resident footprint — pages are found through the per-region
// allocation index, never by walking the whole page table — so for
// region 0 (the tag space) a clear is O(tagged bytes / 8) rounded up to
// pages, not O(total memory). Base pages (shared, immutable) are
// shadowed with a private zero page only when they contain a nonzero
// byte, preserving copy-on-write sharing; they are found through the
// snapshot's own per-region index.
func (m *Memory) ZeroRegionPages(region uint64) int {
	n := 0
	for _, key := range m.regionKeys[region&7] {
		p := m.pages[key]
		if *p == ([pageSize]byte{}) {
			continue
		}
		clear(p[:])
		n++
		if m.track {
			m.markDirty(key)
		}
	}
	for _, key := range m.baseKeys[region&7] {
		if m.pages[key] != nil {
			continue // already swept via the private index above
		}
		if *m.base[key] == ([pageSize]byte{}) {
			continue
		}
		m.addPage(key, new([pageSize]byte))
		n++
		if m.track {
			m.markDirty(key)
		}
	}
	return n
}
