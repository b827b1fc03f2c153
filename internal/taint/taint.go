// Package taint implements SHIFT's in-memory tag space: a bitmap living in
// region 0 of the simulated address space that holds one taint bit per
// memory byte (byte-level tracking) or per 8-byte word (word-level
// tracking), as in paper §3.2 and Figure 4.
//
// The same translation is computed two ways: host-side here (taint sources,
// policy sinks, tests) and guest-side by the instruction sequences the
// instrumentation pass emits. The two must agree bit-for-bit; a property
// test in this repository checks that they do.
package taint

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"shift/internal/mem"
)

// Granularity selects the tracking unit (paper: byte-level vs word-level,
// where a word is 8 bytes).
type Granularity uint8

// Tracking granularities.
const (
	Byte Granularity = iota // one tag bit per memory byte
	Word                    // one tag bit per 8-byte word
)

// String returns "byte" or "word".
func (g Granularity) String() string {
	if g == Byte {
		return "byte"
	}
	return "word"
}

// Tag encodings. Both granularities translate a virtual address to a tag
// byte at
//
//	region 0, offset (R << RegionFold(g)) | (off >> DropBits(g))
//
// following Figure 4 (the region number folds down over the implemented
// bits, since the unimplemented hole forbids a bare shift).
//
// Byte-level tracking packs eight tag bits into that byte — one per
// tracked byte, selected by (off & 7) — the dense bitmap of §3.2.
// Word-level tracking instead dedicates the whole tag byte to its 8-byte
// word (a boolean 0/1 byte). That is the classic speed/space trade of
// coarse DIFT maps: the same one-eighth memory overhead as the byte-level
// bitmap, but stores become a plain tag-byte write with no read-modify-
// write and loads need no bit extraction — which is where word-level
// tracking's speed advantage over byte-level (paper Figures 7–9) comes
// from.
const dropBits = 3 // 8 tracked bytes per tag byte at either granularity

// DropBits returns how many low offset bits the translation discards to
// find the tag byte.
func (g Granularity) DropBits() uint { return dropBits }

// UnitShift returns the shift that yields the tracked-unit index.
func (g Granularity) UnitShift() uint {
	if g == Byte {
		return 0
	}
	return 3
}

// WholeByte reports whether the tag byte is a boolean for one tracked
// unit (word level) rather than a bitmap over eight units (byte level).
func (g Granularity) WholeByte() bool { return g == Word }

// RegionFold returns the position the region number is folded down to
// inside the region-0 offset.
func (g Granularity) RegionFold() uint { return mem.ImplBits - g.DropBits() }

// UnitBytes returns the number of memory bytes covered by one tag bit.
func (g Granularity) UnitBytes() uint64 { return 1 << g.UnitShift() }

// TagAddr translates a virtual address to the address of its tag byte
// (always in region 0) and the bit index within it. At word level the
// whole byte is the tag and the bit index is always zero.
func (g Granularity) TagAddr(addr uint64) (tagByte uint64, bit uint) {
	r := mem.Region(addr)
	off := mem.Offset(addr)
	tagOff := r<<g.RegionFold() | off>>g.DropBits()
	if g.WholeByte() {
		return mem.Addr(0, tagOff), 0
	}
	return mem.Addr(0, tagOff), uint(off) & 7
}

// Space is the tag bitmap over a memory. It writes through the ordinary
// memory interface so that guest instrumentation code and host-side
// policy code observe the same bytes.
//
// A Space is not safe for concurrent use. Like the memory under it, it
// belongs to the one goroutine driving its run; a pooled guest's space
// changes owner only through pool.Acquire and Release, which hand the
// guest over a channel.
type Space struct {
	Gran Granularity
	Mem  *mem.Memory

	// Birth-channel provenance. spans records, for the tracked units the
	// host has marked, the channel(s) each mark was born from; live is the
	// union of every channel that has marked taint since the last Clear.
	// Guest-propagated taint (tag-bitmap writes by instrumented stores)
	// is invisible here by construction — ChannelBytes falls back to the
	// live union for units it has no precise origin for, which is exact
	// whenever a run's taint all came from one channel and a sound
	// over-approximation otherwise.
	spans   []span // sorted, disjoint, equal-channel neighbours merged
	scratch []span // paint's reusable window buffer
	live    Channel
}

// span is a run of tracked units sharing one recorded birth-channel
// mask: the units whose addresses lie in [first, last], both unit-aligned.
// last is inclusive so a span ending at the top of a region cannot
// overflow. An input syscall marks one contiguous buffer, so a request's
// provenance is a span or two, not one entry per unit.
type span struct {
	first, last uint64
	ch          Channel
}

// NewSpace maps region 0 of m and returns the tag space over it.
func NewSpace(m *mem.Memory, g Granularity) *Space {
	m.MapRegion(0, 0)
	return &Space{Gran: g, Mem: m}
}

// noteOrigin records ch as a birth channel of the count units starting
// at start (unit strides), and joins it into the live union.
func (s *Space) noteOrigin(start, count uint64, ch Channel) {
	if ch == 0 {
		ch = ChanHost
	}
	s.paint(start, start+(count-1)*s.Gran.UnitBytes(), ch)
	s.live |= ch
}

// dropOrigin forgets the recorded birth channels of the count units
// starting at start. The live union is sticky until Clear: a cleared
// range no longer attributes, but channels seen this run stay live.
func (s *Space) dropOrigin(start, count uint64) {
	s.paint(start, start+(count-1)*s.Gran.UnitBytes(), 0)
}

// paint ORs ch into the recorded channel of every unit in [first, last],
// or, when ch is 0, drops their records. It rewrites only the window of
// spans that overlap or adjoin the range — those are the ones a split or
// merge can change — and splices the result back in place, so a call in
// steady state allocates nothing.
func (s *Space) paint(first, last uint64, ch Channel) {
	unit := s.Gran.UnitBytes()
	sp := s.spans
	// touches reports whether a unit at b overlaps or directly follows
	// one ending at a (b is at most one unit past a), overflow-safe.
	touches := func(a, b uint64) bool { return b <= a || b-a <= unit }
	i := sort.Search(len(sp), func(k int) bool { return touches(sp[k].last, first) })
	j := i + sort.Search(len(sp)-i, func(k int) bool { return !touches(last, sp[i+k].first) })

	out := s.scratch[:0]
	cur, done := first, false // the first unit of the range not yet emitted
	for _, o := range sp[i:j] {
		if o.first < first {
			out = appendSpan(out, span{o.first, min(o.last, first-unit), o.ch}, unit)
		}
		if !done && o.first > cur {
			hi := min(o.first-unit, last)
			out = appendSpan(out, span{cur, hi, ch}, unit)
			cur, done = o.first, hi == last
		}
		if lo, hi := max(o.first, first), min(o.last, last); !done && lo <= hi {
			if ch != 0 {
				out = appendSpan(out, span{lo, hi, o.ch | ch}, unit)
			}
			cur, done = hi+unit, hi == last
		}
		if o.last > last {
			out = appendSpan(out, span{max(o.first, last+unit), o.last, o.ch}, unit)
		}
	}
	if !done {
		out = appendSpan(out, span{cur, last, ch}, unit)
	}
	s.spans = slices.Replace(sp, i, j, out...)
	s.scratch = out[:0]
}

// appendSpan appends sp to out, dropping it when it records no channel
// and merging it into out's last span when the two adjoin with the same
// channel.
func appendSpan(out []span, sp span, unit uint64) []span {
	if sp.ch == 0 {
		return out
	}
	if n := len(out); n > 0 && out[n-1].ch == sp.ch && sp.first-out[n-1].last == unit {
		out[n-1].last = sp.last
		return out
	}
	return append(out, sp)
}

// Live returns the union of every birth channel that marked taint since
// the last Clear — the coarse attribution for taint that propagated
// beyond its precisely-tracked units (register tokens, guest tag writes).
func (s *Space) Live() Channel {
	return s.live
}

// ChannelAt returns the birth channel(s) of the tracked unit containing
// addr: the precise origin when the host marked it, otherwise the live
// union (taint that arrived by propagation). The result is only
// meaningful for tainted units; callers pair it with Tainted.
func (s *Space) ChannelAt(addr uint64) Channel {
	unit := s.Gran.UnitBytes()
	u := addr &^ (unit - 1)
	sp := s.spans
	k := sort.Search(len(sp), func(k int) bool { return sp[k].last >= u })
	if k < len(sp) && sp[k].first <= u {
		return sp[k].ch
	}
	return s.live
}

// ChannelBytes returns, for each byte of [addr, addr+n), the birth
// channel(s) of its tracked unit — the provenance counterpart of
// TaintedBytes for channel-keyed policy checks. Untainted bytes report 0.
func (s *Space) ChannelBytes(addr uint64, n int) ([]Channel, error) {
	out := make([]Channel, n)
	for i := 0; i < n; i++ {
		t, err := s.Tainted(addr+uint64(i), 1)
		if err != nil {
			return nil, err
		}
		if t {
			out[i] = s.ChannelAt(addr + uint64(i))
		}
	}
	return out, nil
}

// Clear unmarks every tag in the space: after it, no address is tainted.
// Cost is O(tagged bytes), not O(memory): the tag bitmap packs 8 tracked
// units per byte into region 0, and the clear zeroes only the region-0
// pages actually resident (found through the memory's per-region page
// index), skipping already-zero ones. This is the pool-recycle reset —
// a taint.Space reused across requests without it leaks request N's tag
// bits into request N+1 (the cross-request bleed attack class; see
// internal/attacks' pool-recycle test). It returns the number of pages
// that held tags.
func (s *Space) Clear() int {
	pages := s.Mem.ZeroRegionPages(0)
	s.spans = s.spans[:0] // keep the capacity: a recycled guest reuses it
	s.live = 0
	return pages
}

// SetRange marks [addr, addr+n) tainted with ChanHost provenance.
// Host-side (the taint() syscall and direct test setup); OS input
// channels use SetRangeFrom.
func (s *Space) SetRange(addr uint64, n uint64) error {
	return s.SetRangeFrom(addr, n, ChanHost)
}

// SetRangeFrom marks [addr, addr+n) tainted, recording ch as the birth
// channel of every covered unit.
func (s *Space) SetRangeFrom(addr, n uint64, ch Channel) error {
	if err := s.setRange(addr, n, true); err != nil {
		return err
	}
	if n > 0 {
		start, count := s.units(addr, n)
		s.noteOrigin(start, count, ch)
	}
	return nil
}

// ClearRange marks [addr, addr+n) untainted. Host-side.
func (s *Space) ClearRange(addr uint64, n uint64) error {
	if err := s.setRange(addr, n, false); err != nil {
		return err
	}
	if n > 0 {
		start, count := s.units(addr, n)
		s.dropOrigin(start, count)
	}
	return nil
}

// checkRange rejects ranges the tag translation cannot cover: an address
// with unimplemented bits set, or a length that runs past the region's
// implemented offsets (which includes every n large enough to make
// addr+n wrap — e.g. a negative guest count cast to uint64).
func checkRange(addr, n uint64) error {
	if !mem.Implemented(addr) {
		return fmt.Errorf("taint: range start %#x has unimplemented address bits", addr)
	}
	if rem := uint64(mem.OffsetMask) + 1 - mem.Offset(addr); n > rem {
		return fmt.Errorf("taint: range [%#x, +%d) escapes the region's implemented offsets", addr, n)
	}
	return nil
}

// units returns the number of tracked units covering [addr, addr+n) and
// the address of the first one. The count is computed from the last
// covered byte (addr+n-1, which checkRange guarantees cannot wrap), so
// the walk is overflow-safe even at the top of region 7.
func (s *Space) units(addr, n uint64) (start, count uint64) {
	unit := s.Gran.UnitBytes()
	start = addr &^ (unit - 1)
	count = (addr+n-1-start)/unit + 1
	return start, count
}

func (s *Space) setRange(addr, n uint64, v bool) error {
	if n == 0 {
		// An empty range touches no unit: without this, an unaligned
		// addr would round down and taint/clear a whole unit.
		return nil
	}
	if err := checkRange(addr, n); err != nil {
		return err
	}
	// Walk tracked units; any byte tainted within a unit taints the unit.
	start, count := s.units(addr, n)
	unit := s.Gran.UnitBytes()
	for i := uint64(0); i < count; i++ {
		a := start + i*unit
		tb, bit := s.Gran.TagAddr(a)
		if err := s.rmwTag(a, tb, bit, v); err != nil {
			return err
		}
	}
	return nil
}

// rmwTag sets or clears one bit of one tag byte.
func (s *Space) rmwTag(a, tb uint64, bit uint, v bool) error {
	old, f := s.Mem.Read(tb, 1)
	if f != nil {
		return fmt.Errorf("taint: reading tag byte for %#x: %w", a, f)
	}
	nb := old &^ (1 << bit)
	if v {
		nb = old | 1<<bit
	}
	if nb != old {
		if f := s.Mem.Write(tb, 1, nb); f != nil {
			return fmt.Errorf("taint: writing tag byte for %#x: %w", a, f)
		}
	}
	return nil
}

// Tainted reports whether any byte of [addr, addr+n) is tainted.
func (s *Space) Tainted(addr uint64, n uint64) (bool, error) {
	if n == 0 {
		return false, nil
	}
	if err := checkRange(addr, n); err != nil {
		return false, err
	}
	start, count := s.units(addr, n)
	unit := s.Gran.UnitBytes()
	for i := uint64(0); i < count; i++ {
		a := start + i*unit
		tb, bit := s.Gran.TagAddr(a)
		v, f := s.Mem.Read(tb, 1)
		if f != nil {
			return false, fmt.Errorf("taint: reading tag byte for %#x: %w", a, f)
		}
		if v>>bit&1 != 0 {
			return true, nil
		}
	}
	return false, nil
}

// PeekUnit reports the tag bit of the tracked unit containing addr,
// reading the bitmap without touching the machine's cache model (the
// lockstep oracle uses it so cross-checks cannot perturb cycle
// accounting).
func (s *Space) PeekUnit(addr uint64) (bool, error) {
	if !mem.Implemented(addr) {
		return false, fmt.Errorf("taint: peek at %#x: unimplemented address bits", addr)
	}
	tb, bit := s.Gran.TagAddr(addr)
	v, f := s.Mem.Peek(tb)
	if f != nil {
		return false, fmt.Errorf("taint: reading tag byte for %#x: %w", addr, f)
	}
	return v>>bit&1 != 0, nil
}

// GroupUnits is the number of tracked units PeekGroup reads at once.
const GroupUnits = 64

// PeekGroup returns the tag bits of the GroupUnits tracked units starting
// at addr aligned down to a group (64 bytes at byte granularity, 512 at
// word granularity): bit i is what PeekUnit reports for unit i. It reads
// the group's 8 tag bytes (byte level) or bit 0 of its 64 tag bytes (word
// level) with one lookup, under the same no-cache-model rules as
// PeekUnit. ok is false when the group cannot be read that way (unimplemented
// address bits, a region bound, a fault); callers then fall back to
// PeekUnit per unit.
func (s *Space) PeekGroup(addr uint64) (bits uint64, ok bool) {
	if !mem.Implemented(addr) {
		return 0, false
	}
	tb, _ := s.Gran.TagAddr(addr &^ (GroupUnits*s.Gran.UnitBytes() - 1))
	var buf [GroupUnits]byte
	tags := buf[:GroupUnits/8]
	if s.Gran.WholeByte() {
		tags = buf[:]
	}
	if !s.Mem.PeekBlock(tb, tags) {
		return 0, false
	}
	if !s.Gran.WholeByte() {
		return binary.LittleEndian.Uint64(tags), true
	}
	for i, v := range tags {
		bits |= uint64(v&1) << i
	}
	return bits, true
}

// TaintedBytes returns, for each byte of [addr, addr+n), whether its
// tracked unit is tainted. Used by character-granular policy checks
// (H3/H5 need to know whether the meta-characters themselves came from
// untrusted input).
func (s *Space) TaintedBytes(addr uint64, n int) ([]bool, error) {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		t, err := s.Tainted(addr+uint64(i), 1)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// CountTainted returns how many tracked units in [addr, addr+n) are
// tainted (diagnostics and tests).
func (s *Space) CountTainted(addr, n uint64) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if err := checkRange(addr, n); err != nil {
		return 0, err
	}
	start, units := s.units(addr, n)
	unit := s.Gran.UnitBytes()
	var count uint64
	for i := uint64(0); i < units; i++ {
		t, err := s.Tainted(start+i*unit, 1)
		if err != nil {
			return 0, err
		}
		if t {
			count++
		}
	}
	return count, nil
}
