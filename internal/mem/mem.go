// Package mem implements the simulated machine's virtual memory: the
// Itanium-style region-partitioned 64-bit address space with unimplemented
// bits (paper §4.1, Figure 4), a sparse paged byte store, and a small L1
// cache model used by the cost accounting.
//
// The top three bits of an address select one of eight regions. Only
// ImplBits low bits of the region offset are implemented; any address with
// a set bit in the unimplemented hole faults, exactly the property that
// prevents SHIFT from deriving a tag address with a single shift and
// forces the region-number relocation of Figure 4.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// Address-space geometry.
const (
	RegionShift = 61                  // region number lives in bits 63:61
	ImplBits    = 36                  // implemented offset bits per region
	OffsetMask  = (1 << ImplBits) - 1 // mask of implemented offset bits

	// unimplMask covers the hole between the implemented offset and the
	// region bits: any set bit here makes the address unimplemented.
	unimplMask = ((uint64(1) << RegionShift) - 1) &^ uint64(OffsetMask)
)

// Region extracts the region number (0..7) of a virtual address.
func Region(addr uint64) uint64 { return addr >> RegionShift }

// Offset extracts the implemented offset of a virtual address.
func Offset(addr uint64) uint64 { return addr & OffsetMask }

// Addr builds a virtual address from a region number and offset.
func Addr(region, offset uint64) uint64 {
	return region<<RegionShift | (offset & OffsetMask)
}

// Implemented reports whether the address has no bits set in the
// unimplemented hole.
func Implemented(addr uint64) bool { return addr&unimplMask == 0 }

// FaultKind classifies memory faults.
type FaultKind uint8

// Memory fault kinds.
const (
	FaultNone          FaultKind = iota
	FaultUnimplemented           // set bits in the unimplemented hole
	FaultUnmapped                // page not mapped
	FaultUnaligned               // access not aligned to its size
	FaultBadSize                 // access size outside {1, 2, 4, 8}
)

// Fault describes a failed memory access.
type Fault struct {
	Kind FaultKind
	Addr uint64
	Size int
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "unknown"
	switch f.Kind {
	case FaultUnimplemented:
		kind = "unimplemented address bits"
	case FaultUnmapped:
		kind = "unmapped address"
	case FaultUnaligned:
		kind = "unaligned access"
	case FaultBadSize:
		kind = "invalid access size"
	}
	return fmt.Sprintf("memory fault: %s at %#x (size %d)", kind, f.Addr, f.Size)
}

// pageBits is the page size used by the sparse store (not architectural;
// purely an implementation choice for the map of frames).
const pageBits = 12

const pageSize = 1 << pageBits

// tlbBits sizes the software TLB: a direct-mapped cache of page-key →
// frame-pointer translations consulted before the pages map. Frames are
// never deallocated, so entries stay valid for the life of the Memory and
// no invalidation protocol is needed.
const tlbBits = 8

const tlbSize = 1 << tlbBits

// tlbEntry caches one page translation; frame == nil marks an empty slot.
type tlbEntry struct {
	key   uint64
	frame *[pageSize]byte
}

// Memory is a sparse 64-bit byte-addressed store. Pages are allocated on
// first write; reads of never-written but mapped regions return zeroes.
// Mapping is tracked at region granularity: a region must be enabled with
// MapRegion before any access inside it succeeds.
type Memory struct {
	pages  map[uint64]*[pageSize]byte
	tlb    [tlbSize]tlbEntry
	mapped [8]bool
	limit  [8]uint64 // highest mapped offset +1 per region (0 = whole region)
	// bound folds the mapped and limit checks into one comparison per
	// region: 0 for an unmapped region, otherwise the exclusive offset
	// bound (the limit, or the full implemented range when limit is 0).
	bound   [8]uint64
	Cache   *Cache // optional L1 model; nil disables cache accounting
	touched uint64 // pages allocated, for footprint reporting

	// base, when non-nil, is a read-only copy-on-write layer under the
	// private page table (see snapshot.go): reads of a page absent from
	// pages serve from base directly, and the first write copies the
	// frame up. Base frames are shared across memories and never
	// mutated, so the TLB must never cache one — only private frames
	// enter it. baseKeys is the snapshot's per-region key index.
	base     map[uint64]*[pageSize]byte
	baseKeys [8][]uint64

	// Dirty-page tracking for Restore (see snapshot.go). track gates
	// the bookkeeping so untracked memories pay one branch per write;
	// lastDirty is a one-entry cache absorbing consecutive writes to
	// one page.
	track     bool
	dirty     map[uint64]struct{}
	lastDirty uint64

	// regionKeys indexes private page keys by region, appended once at
	// allocation, so region-scoped sweeps (ZeroRegionPages — the taint
	// space's O(tagged-bytes) Clear) never walk the whole page table.
	regionKeys [8][]uint64

	// Software-TLB accounting. Plain (non-atomic) counters: frame runs on
	// the simulator's hottest path, and the single-goroutine scheduler is
	// the only writer; readers (metrics exposition) sample after or
	// between runs.
	tlbHits   uint64
	tlbMisses uint64

	// shmu guards pages and touched for the Shared* accessors, which
	// bypass the software TLB (the TLB is mutated even by plain reads,
	// so it can never be consulted concurrently). The plain accessors do
	// NOT take it: their guarantees between each other are unchanged, and
	// mixing plain and Shared* access to one Memory from different
	// goroutines remains the caller's synchronization problem.
	shmu sync.RWMutex
}

// New returns an empty memory with no regions mapped.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// MapRegion enables a region. limit, if non-zero, is the exclusive upper
// bound on offsets valid within the region.
func (m *Memory) MapRegion(region uint64, limit uint64) {
	r := region & 7
	m.mapped[r] = true
	m.limit[r] = limit
	if limit == 0 {
		m.bound[r] = 1 << ImplBits
	} else {
		m.bound[r] = limit
	}
}

// RegionMapped reports whether the region is enabled.
func (m *Memory) RegionMapped(region uint64) bool { return m.mapped[region&7] }

// TLBStats returns the software TLB's hit and miss counts. Sample it
// between runs: the counters are unsynchronized with in-flight accesses.
func (m *Memory) TLBStats() (hits, misses uint64) { return m.tlbHits, m.tlbMisses }

// check validates an access and returns a fault or nil. It is the
// classifying slow path; the hot paths use ok/rangeOK and only come here
// to name the fault (or to confirm an access the conservative fast check
// rejected, e.g. a size-1 access right at a region's limit).
func (m *Memory) check(addr uint64, size int) *Fault {
	// Only the architectural sizes exist. Anything else (a size 3, 5, 6
	// or 7) would make addr&(size-1) a meaningless alignment mask and
	// could let an "aligned" access cross a page frame.
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return &Fault{Kind: FaultBadSize, Addr: addr, Size: size}
	}
	if !Implemented(addr) {
		return &Fault{Kind: FaultUnimplemented, Addr: addr, Size: size}
	}
	r := Region(addr)
	if !m.mapped[r] {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Size: size}
	}
	off := Offset(addr)
	// The subtraction form is overflow-safe: off+size could wrap for a
	// pathological size where the naive off+size > lim test would pass.
	if lim := m.limit[r]; lim != 0 && (off >= lim || uint64(size) > lim-off) {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Size: size}
	}
	if size > 1 && addr&uint64(size-1) != 0 {
		return &Fault{Kind: FaultUnaligned, Addr: addr, Size: size}
	}
	return nil
}

// ok reports whether an aligned access is definitely valid: implemented
// bits clear, region mapped, within the precomputed bound, and aligned.
// A false return is conservative — the caller re-validates with check to
// classify (or rule out) the fault.
func (m *Memory) ok(addr uint64, size int) bool {
	off := addr & OffsetMask
	b := m.bound[addr>>RegionShift]
	return addr&unimplMask == 0 &&
		off < b && uint64(size) <= b-off &&
		(size == 1 || size == 2 || size == 4 || size == 8) &&
		addr&uint64(size-1) == 0
}

// rangeOK reports whether every byte of [addr, addr+n) is accessible
// (no alignment rule). False is conservative, as for ok.
func (m *Memory) rangeOK(addr uint64, n int) bool {
	off := addr & OffsetMask
	b := m.bound[addr>>RegionShift]
	return addr&unimplMask == 0 && off < b && uint64(n) <= b-off
}

// frame returns the frame for addr, allocating if alloc is set, going
// through the software TLB before the pages map. A nil return with
// alloc=false means the page has never been written.
func (m *Memory) frame(addr uint64, alloc bool) *[pageSize]byte {
	key := addr >> pageBits
	e := &m.tlb[key&(tlbSize-1)]
	if e.frame != nil && e.key == key {
		m.tlbHits++
		return e.frame
	}
	m.tlbMisses++
	p := m.pages[key]
	if p == nil {
		if b := m.base[key]; b != nil {
			if !alloc {
				// Serve the shared base frame directly — but never cache
				// it in the TLB, or a later write hitting the cached
				// entry would mutate the shared snapshot.
				return b
			}
			p = new([pageSize]byte)
			*p = *b
		} else if alloc {
			p = new([pageSize]byte)
		} else {
			return nil
		}
		m.addPage(key, p)
	}
	e.key, e.frame = key, p
	return p
}

// addPage installs a freshly allocated private frame and indexes it.
func (m *Memory) addPage(key uint64, p *[pageSize]byte) {
	m.pages[key] = p
	m.touched++
	r := pageRegion(key) & 7
	m.regionKeys[r] = append(m.regionKeys[r], key)
}

// Read reads size bytes (1, 2, 4 or 8) little-endian.
func (m *Memory) Read(addr uint64, size int) (uint64, *Fault) {
	v, _, f := m.ReadMiss(addr, size)
	return v, f
}

// ReadMiss is Read plus whether the access missed in the L1 model (always
// false when no cache is attached). The simulator's load path uses it to
// charge the miss penalty without probing the cache counters twice.
func (m *Memory) ReadMiss(addr uint64, size int) (uint64, bool, *Fault) {
	if !m.ok(addr, size) {
		if f := m.check(addr, size); f != nil {
			return 0, false, f
		}
	}
	missed := false
	if m.Cache != nil {
		missed = !m.Cache.Access(addr)
	}
	// An aligned access never crosses a page boundary (sizes divide
	// pageSize), so a single frame lookup suffices.
	p := m.frame(addr, false)
	if p == nil {
		return 0, missed, nil
	}
	base := addr & (pageSize - 1)
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(p[base : base+8]), missed, nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[base : base+4])), missed, nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[base : base+2])), missed, nil
	default: // size 1; every other size was rejected above
		return uint64(p[base]), missed, nil
	}
}

// Write writes size bytes (1, 2, 4 or 8) little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) *Fault {
	if !m.ok(addr, size) {
		if f := m.check(addr, size); f != nil {
			return f
		}
	}
	if m.Cache != nil {
		m.Cache.Access(addr)
	}
	if m.track {
		m.markDirty(addr >> pageBits)
	}
	p := m.frame(addr, true)
	base := addr & (pageSize - 1)
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(p[base:base+8], v)
	case 4:
		binary.LittleEndian.PutUint32(p[base:base+4], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(p[base:base+2], uint16(v))
	default: // size 1; every other size was rejected above
		p[base] = byte(v)
	}
	return nil
}

// CheckAccess validates an access exactly as the load/store paths do —
// same fault classification, same precedence — without touching memory or
// the cache model. The lockstep oracle uses it to recompute a speculative
// load's defer decision independently of the machine.
func (m *Memory) CheckAccess(addr uint64, size int) *Fault {
	if m.ok(addr, size) {
		return nil
	}
	return m.check(addr, size)
}

// Peek reads one byte without consulting or updating the cache model, so
// observers (the lockstep oracle's bitmap cross-checks) cannot perturb
// the cycle accounting. Mapping and implemented-bits rules still apply.
// Peek does go through the software TLB: it fills it and counts in
// TLBStats, so observer volume (the tag pipeline's sweeps) shows up in
// mem.tlb_miss_ratio and shift_tlb_*, though never in cycles.
func (m *Memory) Peek(addr uint64) (byte, *Fault) {
	if !m.rangeOK(addr, 1) {
		if f := m.check(addr, 1); f != nil {
			return 0, f
		}
	}
	p := m.frame(addr, false)
	if p == nil {
		return 0, nil
	}
	return p[addr&(pageSize-1)], nil
}

// PeekBlock fills dst with the bytes at [addr, addr+len(dst)) under
// Peek's rules: no cache model, one software-TLB lookup. The range must
// lie within one page; PeekBlock reports false, with dst unspecified,
// when it does not or when any byte of it is inaccessible.
func (m *Memory) PeekBlock(addr uint64, dst []byte) bool {
	base := addr & (pageSize - 1)
	if base+uint64(len(dst)) > pageSize || !m.rangeOK(addr, len(dst)) {
		return false
	}
	if p := m.frame(addr, false); p != nil {
		copy(dst, p[base:])
	} else {
		clear(dst)
	}
	return true
}

// ReadBytes copies n bytes starting at addr into a fresh slice. It is a
// host-side helper (syscall handlers, policy engine) and bypasses the
// cache model and alignment rules, but still respects mapping. The whole
// range is validated up front and copied per frame; the byte-wise slow
// path only runs when some byte of the range is inaccessible, preserving
// the exact per-byte fault.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	if m.rangeOK(addr, n) {
		dst := out
		for len(dst) > 0 {
			base := int(addr & (pageSize - 1))
			chunk := pageSize - base
			if chunk > len(dst) {
				chunk = len(dst)
			}
			if p := m.frame(addr, false); p != nil {
				copy(dst, p[base:base+chunk])
			}
			dst = dst[chunk:]
			addr += uint64(chunk)
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		a := addr + uint64(i)
		if f := m.check(a, 1); f != nil {
			return nil, f
		}
		if p := m.frame(a, false); p != nil {
			out[i] = p[a&(pageSize-1)]
		}
	}
	return out, nil
}

// WriteBytes copies b into memory at addr (host-side helper). When some
// byte of the range is inaccessible it falls back to the byte-wise path,
// keeping the historical partial-write-then-fault semantics.
func (m *Memory) WriteBytes(addr uint64, b []byte) *Fault {
	if m.rangeOK(addr, len(b)) {
		for len(b) > 0 {
			base := int(addr & (pageSize - 1))
			chunk := pageSize - base
			if chunk > len(b) {
				chunk = len(b)
			}
			if m.track {
				m.markDirty(addr >> pageBits)
			}
			copy(m.frame(addr, true)[base:base+chunk], b[:chunk])
			b = b[chunk:]
			addr += uint64(chunk)
		}
		return nil
	}
	for i, c := range b {
		a := addr + uint64(i)
		if f := m.check(a, 1); f != nil {
			return f
		}
		if m.track {
			m.markDirty(a >> pageBits)
		}
		m.frame(a, true)[a&(pageSize-1)] = c
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes. It
// scans frame by frame with a bulk NUL search; the byte-wise tail only
// runs when validation fails mid-range, so a string ending before an
// inaccessible byte still reads cleanly (as it always did).
func (m *Memory) ReadCString(addr uint64, max int) (string, *Fault) {
	var out []byte
	i := 0
	for i < max {
		a := addr + uint64(i)
		base := int(a & (pageSize - 1))
		chunk := pageSize - base
		if rem := max - i; chunk > rem {
			chunk = rem
		}
		if !m.rangeOK(a, chunk) {
			for ; i < max; i++ {
				a := addr + uint64(i)
				if f := m.check(a, 1); f != nil {
					return "", f
				}
				var c byte
				if p := m.frame(a, false); p != nil {
					c = p[a&(pageSize-1)]
				}
				if c == 0 {
					return string(out), nil
				}
				out = append(out, c)
			}
			return string(out), nil
		}
		p := m.frame(a, false)
		if p == nil {
			// A never-written frame reads as zeroes: immediate NUL.
			return string(out), nil
		}
		seg := p[base : base+chunk]
		if j := bytes.IndexByte(seg, 0); j >= 0 {
			return string(append(out, seg[:j]...)), nil
		}
		out = append(out, seg...)
		i += chunk
	}
	return string(out), nil
}

// SharedPeek1 reads one byte like Peek but safely from concurrent
// goroutines: it bypasses both the cache model and the software TLB and
// takes an internal read lock on the page table. Byte-level atomicity
// between racing writers is NOT provided here — callers that need a
// consistent read-modify-write serialize on their own locks (the taint
// package's shared tag space shards on bitmap words).
func (m *Memory) SharedPeek1(addr uint64) (byte, *Fault) {
	if !m.rangeOK(addr, 1) {
		if f := m.check(addr, 1); f != nil {
			return 0, f
		}
	}
	key := addr >> pageBits
	m.shmu.RLock()
	p := m.pages[key]
	m.shmu.RUnlock()
	if p == nil {
		if b := m.base[key]; b != nil {
			return b[addr&(pageSize-1)], nil
		}
		return 0, nil
	}
	return p[addr&(pageSize-1)], nil
}

// SharedWrite1 writes one byte, safe against concurrent SharedPeek1 /
// SharedWrite1 calls to other bytes: frame allocation is serialized on
// the page-table lock, and the TLB and cache model are bypassed. Two
// goroutines writing the same byte still need external ordering.
func (m *Memory) SharedWrite1(addr uint64, v byte) *Fault {
	if !m.rangeOK(addr, 1) {
		if f := m.check(addr, 1); f != nil {
			return f
		}
	}
	key := addr >> pageBits
	m.shmu.RLock()
	p := m.pages[key]
	m.shmu.RUnlock()
	if p == nil {
		m.shmu.Lock()
		if p = m.pages[key]; p == nil {
			p = new([pageSize]byte)
			if b := m.base[key]; b != nil {
				*p = *b
			}
			m.addPage(key, p)
		}
		m.shmu.Unlock()
	}
	if m.track {
		m.markDirtyShared(key)
	}
	p[addr&(pageSize-1)] = v
	return nil
}

// PagesTouched returns the number of 4KiB frames ever written.
func (m *Memory) PagesTouched() uint64 { return m.touched }
