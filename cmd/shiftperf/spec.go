package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/shift"
	"shift/internal/workload"
)

// specScaleDiv sizes the Figure-7 inputs at RefScale/4: a checked round
// takes ~2.3 s on a 2-core host, and at full RefScale selective gcc
// diverges (a known defect, see README.md), while /2, /4 and /8 are clean.
const specScaleDiv = 4

// setupPerBlock is how many set-up repetitions follow each block. With
// the one that precedes the window, set-up is timed 1+2×blocks times,
// spread over the run, and reported as the median: a set-up is tens of
// milliseconds, so repetitions taken back to back all see the host in
// whatever state it is in at that moment.
const setupPerBlock = 2

// setupReps is the number of set-up repetitions in a run.
const setupReps = 1 + setupPerBlock*blocks

// specProgram is one Figure-7 benchmark prepared for a spec workload.
type specProgram struct {
	b         *workload.Benchmark
	input     []byte
	prog      *isa.Program // built under the workload's options
	refOut    string       // uninstrumented reference stdout
	refCycles uint64
	cycles    uint64 // instrumented cycles of the first run; every later run must repeat it
}

func (p *specProgram) sources() []shift.Source {
	return []shift.Source{{Name: p.b.Name + ".mc", Text: p.b.Source}}
}

// world installs the benchmark's input as the disk file it reads. The
// input bytes are shared: guests only read files.
func (p *specProgram) world() *shift.World {
	w := shift.NewWorld()
	w.Files["input.dat"] = p.input
	return w
}

// check applies the integrity rule to one run: clean exit, no trap or
// alert, stdout equal to the uninstrumented reference, and modelled
// cycles equal to the program's first run.
func (p *specProgram) check(o *outcome, res *shift.Result, err error) bool {
	name := p.b.Name
	switch {
	case err != nil:
		o.fail("%s: %v", name, err)
	case res.Trap != nil:
		o.fail("%s: trap: %v", name, res.Trap)
	case res.Alert != nil:
		o.fail("%s: alert: %v", name, res.Alert)
	case res.ExitStatus != 0:
		o.fail("%s: exit status %d", name, res.ExitStatus)
	case string(res.World.Stdout) != p.refOut:
		o.fail("%s: stdout %q, reference %q", name, res.World.Stdout, p.refOut)
	case p.cycles != 0 && res.Cycles != p.cycles:
		o.fail("%s: %d modelled cycles, first run had %d", name, res.Cycles, p.cycles)
	default:
		if p.cycles == 0 {
			p.cycles = res.Cycles
		}
		return true
	}
	return false
}

// specOptions is the workload's configuration: full instrumentation
// under shiftd's checker (one decoupled tag-pipeline worker), or
// selective instrumentation with no checker.
func specOptions(b *workload.Benchmark, checked bool) shift.Options {
	opt := shift.Options{Instrument: true, Policy: b.Config()}
	if checked {
		opt.Decoupled = 1
	} else {
		opt.Selective = true
	}
	return opt
}

// roundOrders returns the seeded generator of suite round orders: each
// call yields a permutation of the n programs.
func roundOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// prepareSpec builds and runs the uninstrumented reference of every
// program (untimed: it is the integrity oracle and sim_slowdown's
// denominator).
func prepareSpec() ([]*specProgram, error) {
	var progs []*specProgram
	for _, b := range workload.All() {
		p := &specProgram{b: b, input: b.Input(max(b.RefScale/specScaleDiv, 64))}
		base, err := shift.Build(p.sources(), shift.Options{})
		if err != nil {
			return nil, err
		}
		res, err := shift.Run(base, p.world(), shift.Options{})
		if err != nil {
			return nil, err
		}
		if res.Trap != nil || res.ExitStatus != 0 {
			return nil, fmt.Errorf("%s: reference run: trap %v, exit %d", b.Name, res.Trap, res.ExitStatus)
		}
		p.refOut, p.refCycles = string(res.World.Stdout), res.Cycles
		progs = append(progs, p)
	}
	return progs, nil
}

// specSetup collects a spec workload's timed set-ups.
type specSetup struct {
	total, build  []float64 // seconds, milliseconds
	kept, skipped int
}

// run times one set-up — build, instrument (and reach) and load every
// program — and installs the built programs.
func (s *specSetup) run(progs []*specProgram, checked bool) error {
	var tb, tl time.Duration
	s.kept, s.skipped = 0, 0
	for _, p := range progs {
		opt := specOptions(p.b, checked)
		opt.InstrStats = new(instrument.Stats)
		t0 := time.Now()
		prog, err := shift.Build(p.sources(), opt)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := loader.Load(prog); err != nil {
			return err
		}
		tb += t1.Sub(t0)
		tl += time.Since(t1)
		p.prog = prog
		s.kept += opt.InstrStats.Kept
		s.skipped += opt.InstrStats.Skipped
	}
	s.total = append(s.total, (tb + tl).Seconds())
	s.build = append(s.build, ms(tb))
	return nil
}

// runSpec is the spec-checked / spec-selective workload: a closed loop
// with one caller running whole suite rounds in a seeded order, after an
// untimed warm-up round. A round's latency is the sum over programs of
// each program's median run time within a time block, and each metric
// is the median over blocks. Traced, the window is split: the
// first half measures the untraced headline, the second records spans
// around each layer and a checker-off rerun of every program.
func runSpec(c *runCtx, checked bool) (*outcome, error) {
	o := newOutcome()
	progs, err := prepareSpec()
	if err != nil {
		return nil, err
	}
	var setup specSetup
	if err := setup.run(progs, checked); err != nil {
		return nil, err
	}
	next := roundOrders(c.seed, len(progs))

	for _, i := range next() {
		p := progs[i]
		res, err := shift.Run(p.prog, p.world(), specOptions(p.b, checked))
		o.attempted++
		p.check(o, res, err)
	}

	window := c.window
	if c.traced {
		window /= 2
	}
	lat := map[string][]float64{} // whole window, per program
	var p50, ops []float64        // per block
	rounds := 0
	var measured time.Duration // time spent in blocks so far
	for b := 0; b < blocks; b++ {
		blockLat := map[string][]float64{}
		blockRounds, t0 := 0, time.Now()
		// A block ends when the blocks together have measured their
		// share of the window, so a round's overshoot shortens the
		// next block instead of lengthening the run.
		for end := t0.Add(window*time.Duration(b+1)/blocks - measured); blockRounds == 0 || time.Now().Before(end); blockRounds++ {
			for _, i := range next() {
				p := progs[i]
				opt := specOptions(p.b, checked)
				t := time.Now()
				res, err := shift.Run(p.prog, p.world(), opt)
				d := ms(time.Since(t))
				o.attempted++
				if p.check(o, res, err) {
					lat[p.b.Name] = append(lat[p.b.Name], d)
					blockLat[p.b.Name] = append(blockLat[p.b.Name], d)
				}
			}
		}
		p50 = append(p50, sumQ(blockLat, 0.5))
		ops = append(ops, float64(blockRounds)/time.Since(t0).Seconds())
		measured += time.Since(t0)
		rounds += blockRounds
		for r := 0; r < setupPerBlock; r++ {
			if err := setup.run(progs, checked); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(c.log, "%d suite rounds in %.2fs; per block: p50 %.4v ms, %.3v rounds/s\n",
		rounds, measured.Seconds(), p50, ops)

	logSum := 0.0
	for _, p := range progs {
		logSum += math.Log(float64(p.cycles) / float64(p.refCycles))
	}
	o.e2e["setup_s"] = median(setup.total)
	o.e2e["latency_p50_ms"] = median(p50)
	o.e2e["ops_per_s"] = median(ops)
	o.e2e["sim_slowdown"] = math.Exp(logSum / float64(len(progs)))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = rss

	if c.traced {
		var plain []float64
		for range setup.build {
			t0 := time.Now()
			for _, p := range progs {
				if _, err := shift.Build(p.sources(), shift.Options{}); err != nil {
					return nil, err
				}
			}
			plain = append(plain, ms(time.Since(t0)))
		}
		o.layer["lang.build_ms"] = median(plain)
		o.layer["instrument.build_ms"] = median(setup.build) - median(plain)
		o.layer["instrument.sites_kept"] = float64(setup.kept)
		o.layer["instrument.sites_skipped"] = float64(setup.skipped)
		tracedSpec(c, o, progs, next, checked, window)
		o.layer["load.requests"] = float64(rounds * len(progs))
		o.layer["load.latency_p90_ms"] = sumQ(lat, 0.9)
		o.layer["load.latency_p99_ms"] = sumQ(lat, 0.99)
		traced := c.spans.layerUS("program") / 1e3
		o.layer["trace.overhead_pct"] = (traced - o.e2e["latency_p50_ms"]) / o.e2e["latency_p50_ms"] * 100
	}
	return o, nil
}

// tracedSpec runs suite rounds with a span around each layer call:
// loader.Load, shift.RunOn under the workload's options and — for the
// checked workload — shift.RunOn again with the checker off, whose
// difference is the tag pipeline's share.
func tracedSpec(c *runCtx, o *outcome, progs []*specProgram, next func() []int, checked bool, window time.Duration) {
	counts := runCounts{}
	for round, deadline := int64(1), time.Now().Add(window); round == 1 || time.Now().Before(deadline); round++ {
		root := c.spans.add("suite.round", "", round, 0, 0, time.Now(), time.Time{})
		for _, i := range next() {
			p := progs[i]
			name := p.b.Name
			opt := specOptions(p.b, checked)
			r := loadAndRun(p, opt)
			prog := c.spans.add("program", name, round, 0, root, r.start, r.done)
			c.spans.add("loader.load", name, round, 0, prog, r.start, r.loaded)
			c.spans.add("shift.run", name, round, 0, prog, r.loaded, r.done)
			o.attempted++
			if !p.check(o, r.res, r.err) {
				continue
			}
			counts.record(name, r.res, counters{}) // a fresh machine starts at zero
			if checked {
				opt.Decoupled = 0
				r := loadAndRun(p, opt)
				c.spans.add("machine.run", name, round, 0, root, r.loaded, r.done)
				o.attempted++
				p.check(o, r.res, r.err)
			}
		}
		c.spans.end(root, time.Now())
	}

	l := o.layer
	l["loader.load_us"] = c.spans.layerUS("loader.load")
	l["shift.run_us"] = c.spans.layerUS("shift.run")
	l["machine.run_us"] = l["shift.run_us"]
	l["tagpipe.check_us"] = 0
	if checked {
		l["machine.run_us"] = c.spans.layerUS("machine.run")
		l["tagpipe.check_us"] = l["shift.run_us"] - l["machine.run_us"]
	}
	counts.fill(l)
	// The spec path has no tracer, pool, shiftd or open-loop generator.
	for _, n := range []string{"trace.alloc_us", "trace.hook_us", "pool.acquire_us", "taint.clear_us",
		"pool.recycle_us", "forensics.report_us", "shiftd.serve_us_mean", "shiftd.transport_us",
		"pool.restored_pages_per_req", "pool.cleared_tag_pages_per_req", "load.exploits", "load.gen_late_ms_p99"} {
		l[n] = 0
	}
}

// timedRun is one program run split at the loader/machine boundary.
type timedRun struct {
	res                 *shift.Result
	err                 error
	start, loaded, done time.Time
}

// loadAndRun is shift.Run taken apart so each half can be timed:
// loader.Load, then shift.RunOn on a machine over the fresh image.
func loadAndRun(p *specProgram, opt shift.Options) timedRun {
	r := timedRun{start: time.Now()}
	img, err := loader.Load(p.prog)
	r.loaded = time.Now()
	if err != nil {
		r.err, r.done = err, r.loaded
		return r
	}
	w := p.world()
	w.HeapBase, w.StackTop = img.HeapBase, img.StackTop
	r.res, r.err = shift.RunOn(img.NewMachine(), w, opt)
	r.done = time.Now()
	return r
}
