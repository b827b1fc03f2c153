// Package pool maintains a set of warm instrumented guests that serve
// requests without paying program load or instrumentation cost per
// request. This is the paper's §6.3 server scenario made concrete: one
// loaded image — instrumented text, runtime library, initial data — is
// captured once as a mem.Snapshot, and every pooled guest runs over it
// through a copy-on-write base layer. Recycling a guest between
// requests costs O(pages the request dirtied) for memory (dirty-page
// restore), O(tagged bytes) for the taint bitmap (taint.Space.Clear),
// and a register overlay — not a reload.
//
// The recycle path is also where two lifecycle bugs this package exists
// to contain are closed: machine.RestoreRegs resets per-run identity
// (TID, hooks) so a recycled guest cannot misattribute retirements to a
// previous request's observers, and Space.Clear drops every tag so no
// request can see taint born from another request's input (see
// internal/attacks' pool-recycle bleed test).
package pool

import (
	"fmt"
	"sync/atomic"

	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/machine"
	"shift/internal/mem"
	"shift/internal/metrics"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/trace"
)

// Guest is one pooled machine: private COW memory and cache model over
// the pool's shared snapshot, plus the per-guest tag space and policy
// engine a run wires into its world.
type Guest struct {
	mach   *machine.Machine
	tags   *taint.Space
	engine *policy.Engine
}

// Machine exposes the guest's machine (for tests that inspect state
// between an Acquire and a Release).
func (g *Guest) Machine() *machine.Machine { return g.mach }

// Tags exposes the guest's tag space (nil for uninstrumented pools),
// for tests that pin recycle hygiene — no taint, and no birth-channel
// bookkeeping, may survive into the next request.
func (g *Guest) Tags() *taint.Space { return g.tags }

// Stats is a point-in-time view of pool accounting.
type Stats struct {
	Size          int
	Busy          int
	Requests      uint64
	Recycles      uint64
	RestoredPages uint64 // dirty pages rewound across all recycles
	ClearedPages  uint64 // nonzero tag pages zeroed across all recycles
}

// Pool is a fixed-size set of warm guests over one program image.
// All methods are safe for concurrent use; Run blocks while every
// guest is busy.
type Pool struct {
	prog     *isa.Program
	opt      shift.Options
	snap     *mem.Snapshot
	regs     *machine.RegSnapshot
	heapBase uint64
	stackTop uint64
	free     chan *Guest
	size     int

	requests      atomic.Uint64
	recycles      atomic.Uint64
	restoredPages atomic.Uint64
	clearedPages  atomic.Uint64
	busy          atomic.Int64
}

// New loads prog once, captures its post-load snapshot, and fills the
// pool with size warm guests. opt selects the same knobs as shift.Run;
// every request served by the pool runs with it.
func New(prog *isa.Program, size int, opt shift.Options) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("pool: size %d, want >= 1", size)
	}
	img, err := loader.Load(prog)
	if err != nil {
		return nil, err
	}
	seed := img.NewMachine()
	p := &Pool{
		prog:     prog,
		opt:      opt,
		snap:     img.Mem.Snapshot(),
		regs:     seed.SnapshotRegs(),
		heapBase: img.HeapBase,
		stackTop: img.StackTop,
		free:     make(chan *Guest, size),
		size:     size,
	}
	for i := 0; i < size; i++ {
		p.free <- p.newGuest()
	}
	return p, nil
}

// newGuest builds one warm guest over the shared snapshot.
func (p *Pool) newGuest() *Guest {
	m := mem.NewFromSnapshot(p.snap)
	m.Cache = mem.NewCache(16*1024, 64)
	mach := machine.New(p.prog, m)
	mach.RestoreRegs(p.regs)
	g := &Guest{mach: mach}
	if p.opt.Instrument {
		conf := p.opt.Policy
		if conf == nil {
			conf = policy.DefaultConfig()
		}
		gran := p.opt.Granularity
		if p.opt.Policy != nil {
			gran = conf.Granularity
		}
		g.tags = taint.NewSpace(m, gran)
		g.engine = policy.NewEngine(conf)
	}
	return g
}

// Acquire takes a guest out of the pool, blocking until one is free.
// Pair with Release; prefer Run unless the caller must inspect guest
// state between runs.
func (p *Pool) Acquire() *Guest {
	g := <-p.free
	p.busy.Add(1)
	return g
}

// Release recycles the guest — tag clear, dirty-page restore, register
// overlay — and returns it to the pool.
func (p *Pool) Release(g *Guest) {
	p.recycle(g)
	p.busy.Add(-1)
	p.free <- g
}

// recycle rewinds a guest to the pool snapshot. The tag clear runs
// first: it is the security-critical step (no request may inherit
// another's taint) and must not depend on the dirty set being complete;
// the policy engine then forgets the request's alerts (nil, not [:0], so
// no violation a caller still holds shares a reused backing array); the
// dirty-page restore rewinds data, heap and stack content; the register
// overlay resets architectural state and per-run identity.
func (p *Pool) recycle(g *Guest) {
	if g.tags != nil {
		p.clearedPages.Add(uint64(g.tags.Clear()))
	}
	if g.engine != nil {
		g.engine.Alerts = nil
	}
	p.restoredPages.Add(uint64(g.mach.Mem.Restore(p.snap)))
	g.mach.RestoreRegs(p.regs)
	p.recycles.Add(1)
}

// Run serves one request: acquire a guest, wire the world to the
// guest's tag space and policy engine, execute via shift.RunOn, recycle
// and release. The returned Result is complete, but Result.Machine has
// been recycled by the time Run returns — callers needing machine state
// must use Acquire/Release and read it before releasing.
func (p *Pool) Run(world *shift.World) (*shift.Result, error) {
	return p.run(world, p.opt)
}

// RunTraced is Run with a per-request flight recorder attached, so a
// violation's forensic bundle carries the taint-lifecycle trail of
// exactly this request (cmd/shiftd attaches one per connection).
func (p *Pool) RunTraced(world *shift.World, tr *trace.Tracer) (*shift.Result, error) {
	opt := p.opt
	opt.Trace = tr
	return p.run(world, opt)
}

func (p *Pool) run(world *shift.World, opt shift.Options) (*shift.Result, error) {
	g := p.Acquire()
	defer p.Release(g)
	if world == nil {
		world = shift.NewWorld()
	}
	world.HeapBase = p.heapBase
	world.StackTop = p.stackTop
	world.Tags = g.tags
	world.Engine = g.engine
	res, err := shift.RunOn(g.mach, world, opt)
	p.requests.Add(1)
	return res, err
}

// Stats returns current accounting.
func (p *Pool) Stats() Stats {
	return Stats{
		Size:          p.size,
		Busy:          int(p.busy.Load()),
		Requests:      p.requests.Load(),
		Recycles:      p.recycles.Load(),
		RestoredPages: p.restoredPages.Load(),
		ClearedPages:  p.clearedPages.Load(),
	}
}

// SnapshotPages returns the shared base image's resident page count.
func (p *Pool) SnapshotPages() int { return p.snap.Pages() }

// RegisterMetrics installs the pool's instruments on reg: size and
// occupancy gauges plus the cumulative recycle counters. The server
// (cmd/shiftd) serves these from the same process as the workload.
func (p *Pool) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("shift_pool_size", func() uint64 { return uint64(p.size) })
	reg.GaugeFunc("shift_pool_busy", func() uint64 { return uint64(p.busy.Load()) })
	reg.GaugeFunc("shift_pool_requests_total", p.requests.Load)
	reg.GaugeFunc("shift_pool_recycles_total", p.recycles.Load)
	reg.GaugeFunc("shift_pool_restored_pages_total", p.restoredPages.Load)
	reg.GaugeFunc("shift_pool_cleared_tag_pages_total", p.clearedPages.Load)
}
