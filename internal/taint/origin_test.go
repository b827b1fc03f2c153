package taint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shift/internal/mem"
)

// unitMap is the per-unit provenance reference: the channel mask each
// host-marked unit was born from, plus the live union.
type unitMap struct {
	unit   uint64
	origin map[uint64]Channel
	live   Channel
}

func (r *unitMap) set(addr, n uint64, ch Channel) {
	if ch == 0 {
		ch = ChanHost
	}
	for u := addr &^ (r.unit - 1); u <= addr+n-1; u += r.unit {
		r.origin[u] |= ch
	}
	r.live |= ch
}

func (r *unitMap) clearRange(addr, n uint64) {
	for u := addr &^ (r.unit - 1); u <= addr+n-1; u += r.unit {
		delete(r.origin, u)
	}
}

// channelAt and channelByte give what ChannelAt and ChannelBytes must
// answer: only host-set ranges taint here, so a unit is tainted exactly
// when it has a recorded origin.
func (r *unitMap) channelAt(a uint64) Channel {
	if ch, ok := r.origin[a&^(r.unit-1)]; ok {
		return ch
	}
	return r.live
}

func (r *unitMap) channelByte(a uint64) Channel { return r.origin[a&^(r.unit-1)] }

// spans returns the reference's canonical span list: maximal runs of
// consecutive units with the same channel, in address order.
func (r *unitMap) spans() []span {
	keys := make([]uint64, 0, len(r.origin))
	for u := range r.origin {
		keys = append(keys, u)
	}
	slices.Sort(keys)
	var out []span
	for _, u := range keys {
		out = appendSpan(out, span{u, u, r.origin[u]}, r.unit)
	}
	return out
}

// The span list must answer ChannelAt, ChannelBytes and Live exactly as a
// per-unit map does, and must be in canonical form (sorted, disjoint,
// equal-channel neighbours merged), over seeded random sequences of
// overlapping, adjacent, unaligned and single-unit updates — including
// ranges that end at the last implemented offset of a region.
func TestOriginSpansMatchUnitMap(t *testing.T) {
	const window = 192
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	bases := []uint64{
		mem.Addr(2, 0x10000),
		mem.Addr(7, mem.OffsetMask+1-window), // the window ends at the region top
	}
	chans := []Channel{0, ChanNetwork, ChanFile, ChanStdin, ChanNetwork | ChanFile}
	for _, g := range []Granularity{Byte, Word} {
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			s := newFullSpace(g)
			ref := &unitMap{unit: g.UnitBytes(), origin: map[uint64]Channel{}}
			for op := 0; op < 24; op++ {
				base := bases[rng.Intn(len(bases))]
				off := uint64(rng.Intn(window))
				var n uint64
				switch rng.Intn(4) {
				case 0:
					n = 1 // a single unit at byte level, a single byte at word level
				case 1:
					n = g.UnitBytes() * uint64(1+rng.Intn(4))
				case 2:
					n = window - off // runs to the window's end: the region top for bases[1]
				default:
					n = uint64(1 + rng.Intn(48))
				}
				n = min(n, window-off)
				addr := base + off
				var what string
				switch r := rng.Intn(10); {
				case r < 6:
					ch := chans[rng.Intn(len(chans))]
					what = "SetRangeFrom " + ch.String()
					if err := s.SetRangeFrom(addr, n, ch); err != nil {
						t.Fatal(err)
					}
					ref.set(addr, n, ch)
				case r < 9:
					what = "ClearRange"
					if err := s.ClearRange(addr, n); err != nil {
						t.Fatal(err)
					}
					ref.clearRange(addr, n)
				default:
					what = "Clear"
					s.Clear()
					ref.origin, ref.live = map[uint64]Channel{}, 0
				}
				ctx := func() string { return fmt.Sprintf("%v seed %d op %d %s", g, seed, op, what) }
				if want := ref.spans(); !slices.Equal(s.spans, want) {
					t.Fatalf("%s [%#x,+%d): spans %+v, want %+v", ctx(), addr, n, s.spans, want)
				}
				if s.Live() != ref.live {
					t.Fatalf("%s: Live = %v, want %v", ctx(), s.Live(), ref.live)
				}
				for _, b := range bases {
					lo := b - 16
					hi := b + window - 1 // the last address checked
					if b == bases[0] {
						hi += 16
					}
					cb, err := s.ChannelBytes(lo, int(hi-lo+1))
					if err != nil {
						t.Fatal(err)
					}
					for a := lo; ; a++ {
						if got, want := s.ChannelAt(a), ref.channelAt(a); got != want {
							t.Fatalf("%s: ChannelAt(%#x) = %v, want %v", ctx(), a, got, want)
						}
						if got, want := cb[a-lo], ref.channelByte(a); got != want {
							t.Fatalf("%s: ChannelBytes at %#x = %v, want %v", ctx(), a, got, want)
						}
						if a == hi {
							break
						}
					}
				}
			}
		}
	}
}

// Pool recycling tags a page-sized input and a short network record,
// then clears: once warmed up, that cycle must not allocate for
// provenance (Clear keeps the span list's capacity).
func TestOriginCycleAllocFree(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		s := newFullSpace(g)
		file, net := mem.Addr(2, 0x4000), mem.Addr(2, 0x9003)
		cycle := func() {
			if err := s.SetRangeFrom(net, 64, ChanNetwork); err != nil {
				t.Fatal(err)
			}
			if err := s.SetRangeFrom(file, 4096, ChanFile); err != nil {
				t.Fatal(err)
			}
			s.Clear()
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%v: SetRangeFrom + Clear allocates %v times per cycle, want 0", g, allocs)
		}
	}
}
