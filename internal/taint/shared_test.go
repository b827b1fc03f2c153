package taint

import (
	"sync"
	"testing"

	"shift/internal/mem"
)

// A shared Space must never tear a tag unit: concurrent goroutines
// setting and clearing different bits of the same tag bytes are
// read-modify-writes of shared bitmap state, and without the shard locks
// one writer's interleaved RMW silently drops another's bit (the host-
// side twin of the paper's §4.4 guest hazard). Run under -race this also
// proves the locking discipline is complete, not just usually lucky.
func TestSharedSpaceNoTornUnits(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		t.Run(g.String(), func(t *testing.T) {
			m := mem.New()
			m.MapRegion(2, 0)
			s := NewSpace(m, g).Share()
			if !s.Shared() {
				t.Fatal("Share did not mark the space shared")
			}

			const workers = 8
			const span = 4096 // bytes of guest memory hammered
			base := mem.Addr(2, 0x1000)

			// Worker k owns bytes with index%workers == k: at byte
			// granularity adjacent owners collide inside single tag
			// bytes; at word granularity they collide inside tag words
			// (one shard lock covers 8 tag bytes).
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for round := 0; round < 50; round++ {
						for i := k; i < span; i += workers {
							a := base + uint64(i)
							if err := s.SetRange(a, 1); err != nil {
								t.Error(err)
								return
							}
						}
						if round == 49 {
							break // final round leaves everything set
						}
						for i := k; i < span; i += workers {
							a := base + uint64(i)
							if err := s.ClearRange(a, 1); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(k)
			}
			wg.Wait()

			n, err := s.CountTainted(base, span)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(span) / g.UnitBytes()
			if n != want {
				t.Fatalf("%d of %d units tainted after the hammer; %d lost to torn updates",
					n, want, want-n)
			}
			// The birth records took the same churn under originMu: one
			// merged host span must cover the hammered bytes.
			if sp := s.spans; len(sp) != 1 || sp[0].first != base || sp[0].last != base+span-g.UnitBytes() || sp[0].ch != ChanHost {
				t.Fatalf("birth records after the hammer = %+v, want one host span over [%#x, +%d)", sp, base, span)
			}
		})
	}
}

// Concurrent readers must coexist with writers without perturbing them:
// Tainted and PeekUnit answer from a consistent tag byte under the shard
// lock.
func TestSharedSpaceConcurrentReaders(t *testing.T) {
	m := mem.New()
	m.MapRegion(2, 0)
	s := NewSpace(m, Byte).Share()
	base := mem.Addr(2, 0x2000)
	if err := s.SetRange(base, 64); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tainted, err := s.Tainted(base, 64); err != nil || !tainted {
					t.Errorf("tainted=%v err=%v", tainted, err)
					return
				}
				if bit, err := s.PeekUnit(base); err != nil || !bit {
					t.Errorf("peek=%v err=%v", bit, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		// Churn neighbouring bytes of the same tag bytes; base stays set.
		if err := s.SetRange(base+64, 64); err != nil {
			t.Fatal(err)
		}
		if err := s.ClearRange(base+64, 64); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// PeekGroup on a shared Space equals 64 PeekUnit calls, and reads a
// group under its shard locks while writers churn the neighbouring
// group's tag bytes (run under -race, this checks the locking).
func TestSharedSpacePeekGroup(t *testing.T) {
	for _, g := range []Granularity{Byte, Word} {
		t.Run(g.String(), func(t *testing.T) {
			m := mem.New()
			m.MapRegion(2, 0)
			s := NewSpace(m, g).Share()
			span := GroupUnits * g.UnitBytes()
			base := mem.Addr(2, 0x4000)
			for i := uint64(0); i < GroupUnits; i += 3 {
				if err := s.SetRange(base+i*g.UnitBytes(), 1); err != nil {
					t.Fatal(err)
				}
			}
			checkGroup(t, s, base)
			want, ok := s.PeekGroup(base)
			if !ok || want == 0 {
				t.Fatalf("PeekGroup = %#x, %v", want, ok)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got, ok := s.PeekGroup(base); !ok || got != want {
						t.Errorf("PeekGroup = %#x, %v; want %#x", got, ok, want)
						return
					}
					if _, ok := s.PeekGroup(base + span); !ok {
						t.Error("PeekGroup of the churned group refused")
						return
					}
				}
			}()
			for i := 0; i < 500; i++ {
				if err := s.SetRange(base+span, span); err != nil {
					t.Fatal(err)
				}
				if err := s.ClearRange(base+span, span); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			checkGroup(t, s, base+span)
		})
	}
}
