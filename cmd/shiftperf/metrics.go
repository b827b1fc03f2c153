package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"shift/internal/machine"
	"shift/internal/shift"
)

// metric names one reported number. The lists below are the benchmark's
// vocabulary; BENCHMARK.json at the repository root must name the same
// metrics with the same units and directions (pinned by a test).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a modelled quantity (simulated cycles): it must repeat
	// bit for bit across runs, so -compare reports any change.
	Exact bool
}

// endToEnd is what every untraced run prints. An "op" is one full
// Figure-7 suite round for the spec workloads and one HTTP request for
// the serve workloads.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim_slowdown", Unit: "x", Better: "lower", Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer is what every traced run prints. Times and counts are per op
// unless the name says otherwise; a layer a workload's path never enters
// reads 0 there.
var perLayer = []metric{
	{Name: "lang.build_ms", Unit: "ms", Better: "lower"},
	{Name: "instrument.build_ms", Unit: "ms", Better: "lower"},
	{Name: "instrument.sites_kept", Unit: "count", Better: "lower"},
	{Name: "instrument.sites_skipped", Unit: "count", Better: "higher"},
	{Name: "loader.load_us", Unit: "us", Better: "lower"},
	{Name: "shift.run_us", Unit: "us", Better: "lower"},
	{Name: "machine.run_us", Unit: "us", Better: "lower"},
	{Name: "machine.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "machine.retired", Unit: "count", Better: "lower"},
	{Name: "machine.sim_cycles", Unit: "count", Better: "lower"},
	{Name: "machine.block_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.tlb_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.sim_cache_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tagpipe.check_us", Unit: "us", Better: "lower"},
	{Name: "tagpipe.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "tagpipe.records", Unit: "count", Better: "lower"},
	{Name: "tagpipe.stalls", Unit: "count", Better: "lower"},
	{Name: "tagpipe.drains", Unit: "count", Better: "lower"},
	{Name: "tagpipe.direct_segs", Unit: "count", Better: "lower"},
	{Name: "tagpipe.unit_checks", Unit: "count", Better: "lower"},
	{Name: "tagpipe.sweeps", Unit: "count", Better: "lower"},
	{Name: "trace.alloc_us", Unit: "us", Better: "lower"},
	{Name: "trace.hook_us", Unit: "us", Better: "lower"},
	{Name: "pool.acquire_us", Unit: "us", Better: "lower"},
	{Name: "taint.clear_us", Unit: "us", Better: "lower"},
	{Name: "pool.recycle_us", Unit: "us", Better: "lower"},
	{Name: "forensics.report_us", Unit: "us", Better: "lower"},
	{Name: "shiftd.serve_us_mean", Unit: "us", Better: "lower"},
	{Name: "shiftd.transport_us", Unit: "us", Better: "lower"},
	{Name: "pool.restored_pages_per_req", Unit: "count", Better: "lower"},
	{Name: "pool.cleared_tag_pages_per_req", Unit: "count", Better: "lower"},
	{Name: "load.requests", Unit: "count", Better: "higher"},
	{Name: "load.exploits", Unit: "count", Better: "higher"},
	{Name: "load.gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "load.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "load.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// allMetrics is both lists, end-to-end first.
func allMetrics() []metric {
	return append(append([]metric(nil), endToEnd...), perLayer...)
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what a workload measured: end-to-end numbers always,
// per-layer numbers when traced, and the integrity tally.
type outcome struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation with its reason on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "shiftperf: integrity: "+format+"\n", args...)
	}
}

// result assembles the result line: the end-to-end metrics untraced, the
// per-layer metrics traced. A metric a workload failed to fill is an
// error, so the printed names always equal the declared ones.
func (o *outcome) result(traced bool) (*result, error) {
	list, vals := endToEnd, o.e2e
	if traced {
		list, vals = perLayer, o.layer
	}
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return r, nil
}

// printTable writes one metric per line, in declaration order.
func printTable(w io.Writer, workload string, r *result) {
	for _, m := range allMetrics() {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%-14s %-32s %14s %s\n", workload, m.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
		}
	}
	fmt.Fprintf(w, "%-14s %-32s %14d/%d\n", workload, "failed/attempted", r.Failed, r.Attempted)
}

// writeJSONLine prints v as one JSON line.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so -compare judges spreads exactly as the acceptance check does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer with no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// counters are a machine's cumulative translation-cache, TLB and
// modelled-cache counts.
type counters struct {
	blockHits, blockMisses, tlbHits, tlbMisses, cacheHits, cacheMisses uint64
}

func countersOf(m *machine.Machine) counters {
	th, tm := m.Mem.TLBStats()
	return counters{m.BlockStats.Hits, m.BlockStats.Misses, th, tm, m.Mem.Cache.Hits, m.Mem.Cache.Misses}
}

// runCounts collects the counts of traced runs: count name → sample
// group (the program for spec ops, "" for serve requests) → one value
// per run.
type runCounts map[string]map[string][]float64

func (rc runCounts) add(name, key string, v uint64) {
	if rc[name] == nil {
		rc[name] = map[string][]float64{}
	}
	rc[name][key] = append(rc[name][key], float64(v))
}

// record adds one run: retirements, modelled cycles, the machine's
// counter deltas since before, and the tag pipeline's stats.
func (rc runCounts) record(key string, res *shift.Result, before counters) {
	after := countersOf(res.Machine)
	rc.add("retired", key, res.Retired)
	rc.add("cycles", key, res.Cycles)
	rc.add("block.hits", key, after.blockHits-before.blockHits)
	rc.add("block.misses", key, after.blockMisses-before.blockMisses)
	rc.add("tlb.hits", key, after.tlbHits-before.tlbHits)
	rc.add("tlb.misses", key, after.tlbMisses-before.tlbMisses)
	rc.add("cache.hits", key, after.cacheHits-before.cacheHits)
	rc.add("cache.misses", key, after.cacheMisses-before.cacheMisses)
	if res.Pipe != nil {
		s := &res.Pipe.Stats
		rc.add("tagpipe.records", key, s.Records.Load())
		rc.add("tagpipe.stalls", key, s.Stalls.Load())
		rc.add("tagpipe.drains", key, s.Drains.Load())
		rc.add("tagpipe.direct_segs", key, s.DirectSegs.Load())
		rc.add("tagpipe.unit_checks", key, s.UnitChecks.Load())
		rc.add("tagpipe.sweeps", key, s.Sweeps.Load())
	}
}

// fill sets the per-op machine, mem and tagpipe metrics (each group's
// median, summed over groups) and the per-instruction and per-record
// rates, from the layer times already in l.
func (rc runCounts) fill(l map[string]float64) {
	op := func(name string) float64 { return sumQ(rc[name], 0.5) }
	l["machine.retired"] = op("retired")
	l["machine.sim_cycles"] = op("cycles")
	l["machine.ns_per_instr"] = ratio(l["machine.run_us"]*1e3, l["machine.retired"])
	l["machine.block_miss_ratio"] = ratio(op("block.misses"), op("block.hits")+op("block.misses"))
	l["mem.tlb_miss_ratio"] = ratio(op("tlb.misses"), op("tlb.hits")+op("tlb.misses"))
	l["mem.sim_cache_miss_ratio"] = ratio(op("cache.misses"), op("cache.hits")+op("cache.misses"))
	for _, n := range []string{"records", "stalls", "drains", "direct_segs", "unit_checks", "sweeps"} {
		l["tagpipe."+n] = op("tagpipe." + n)
	}
	l["tagpipe.ns_per_record"] = ratio(l["tagpipe.check_us"]*1e3, l["tagpipe.records"])
}

// sumQ sums, over sample groups, each group's q-quantile.
func sumQ(groups map[string][]float64, q float64) float64 {
	total := 0.0
	for _, xs := range groups {
		total += quantile(xs, q)
	}
	return total
}
