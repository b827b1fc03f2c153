package bench

import (
	"fmt"
	"io"
	"strings"

	"shift/internal/attacks"
	"shift/internal/isa"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 6: Apache (httpd) overhead.

// Fig6Row is one file size of the Apache experiment.
type Fig6Row struct {
	FileSize int
	Requests int

	BaseCycles uint64
	Cycles     map[string]uint64 // config key -> cycles

	// RelLatency and RelThroughput are instrumented performance relative
	// to baseline (1.0 = no overhead), per config key.
	RelLatency    map[string]float64
	RelThroughput map[string]float64
}

// Fig6 runs the httpd workload at each file size with the given request
// count, at byte and word granularity. Cells (one file size under one
// configuration, plus its baseline) run on the worker pool.
func (h Harness) Fig6(requests int, fileSizes []int) ([]Fig6Row, error) {
	configs := []Config{ByteUnsafe, WordUnsafe}
	stride := 1 + len(configs)
	cells := make([]*shift.Result, len(fileSizes)*stride)
	err := h.parallelFor(len(cells), func(i int) error {
		size := fileSizes[i/stride]
		var opt shift.Options
		if j := i % stride; j != 0 {
			cfg := configs[j-1]
			conf := workload.HTTPDConfig()
			conf.Granularity = cfg.Gran
			opt = shift.Options{Instrument: true, Policy: conf, Features: cfg.Feat}
		}
		res, err := shift.BuildAndRun(
			[]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}},
			workload.HTTPDWorld(requests, size), opt)
		if err != nil {
			return err
		}
		if res.Trap != nil || res.Alert != nil {
			return fmt.Errorf("httpd size %d: trap=%v alert=%v", size, res.Trap, res.Alert)
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for si, size := range fileSizes {
		base := cells[si*stride]
		row := Fig6Row{
			FileSize:      size,
			Requests:      requests,
			BaseCycles:    base.Cycles,
			Cycles:        map[string]uint64{},
			RelLatency:    map[string]float64{},
			RelThroughput: map[string]float64{},
		}
		for ci, cfg := range configs {
			res := cells[si*stride+1+ci]
			if string(res.World.Stdout) != string(base.World.Stdout) {
				return nil, fmt.Errorf("httpd size %d: output diverged under %s", size, cfg.Key)
			}
			row.Cycles[cfg.Key] = res.Cycles
			// Latency per request scales with cycles; throughput is
			// bytes served per cycle. Both relative to baseline.
			row.RelLatency[cfg.Key] = float64(base.Cycles) / float64(res.Cycles)
			row.RelThroughput[cfg.Key] = float64(base.Cycles) / float64(res.Cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig6 renders the figure as a table of relative performance.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: relative performance of SHIFT for the HTTP server")
	fmt.Fprintln(w, "(1.00 = no overhead; paper: ~1% mean overhead, worst ~4.2% at 4KB)")
	fmt.Fprintf(w, "%-10s %12s %12s %14s %14s\n", "file", "byte-lat", "word-lat", "byte-overhead", "word-overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.4f %12.4f %13.2f%% %13.2f%%\n",
			sizeName(r.FileSize),
			r.RelLatency["byte-unsafe"], r.RelLatency["word-unsafe"],
			(1/r.RelLatency["byte-unsafe"]-1)*100,
			(1/r.RelLatency["word-unsafe"]-1)*100)
	}
}

func sizeName(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// ---------------------------------------------------------------------------
// Figure 7: SPEC slowdowns.

// SpecRow is one benchmark's slowdowns across configurations.
type SpecRow struct {
	Name       string
	BaseCycles uint64
	Slowdown   map[string]float64 // config key -> cycles/baseline
	Measure    map[string]*Measurement
}

// RunSpec measures every benchmark at the given scale divisor under the
// given configurations, verifying output equivalence against baseline.
// Cells (one benchmark under one configuration, plus its baseline) run
// on the worker pool; rows are assembled in benchmark order afterwards.
func (h Harness) RunSpec(scaleDiv int, configs []Config) ([]SpecRow, error) {
	benches := workload.All()
	stride := 1 + len(configs) // baseline + one cell per config
	cells := make([]*Measurement, len(benches)*stride)
	err := h.parallelFor(len(cells), func(i int) error {
		b := benches[i/stride]
		scale := b.RefScale / scaleDiv
		if scale < 64 {
			scale = 64
		}
		var err error
		if j := i % stride; j == 0 {
			cells[i], err = h.RunBenchmark(b, scale, nil)
		} else {
			cfg := configs[j-1]
			cells[i], err = h.RunBenchmark(b, scale, &cfg)
			if err != nil {
				err = fmt.Errorf("%s under %s: %w", b.Name, cfg.Key, err)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []SpecRow
	for bi, b := range benches {
		base := cells[bi*stride]
		row := SpecRow{
			Name:       b.Name,
			BaseCycles: base.Cycles,
			Slowdown:   map[string]float64{},
			Measure:    map[string]*Measurement{},
		}
		for ci, cfg := range configs {
			m := cells[bi*stride+1+ci]
			if m.Stdout != base.Stdout {
				return nil, fmt.Errorf("%s under %s: output diverged (%q vs %q)",
					b.Name, cfg.Key, m.Stdout, base.Stdout)
			}
			row.Slowdown[cfg.Key] = float64(m.Cycles) / float64(base.Cycles)
			row.Measure[cfg.Key] = m
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Geomean returns the geometric-mean slowdown for one configuration key.
func Geomean(rows []SpecRow, key string) float64 {
	var xs []float64
	for _, r := range rows {
		xs = append(xs, r.Slowdown[key])
	}
	return geomean(xs)
}

// Fig7 runs the Figure 7 configurations (byte/word x unsafe/safe).
func (h Harness) Fig7(scaleDiv int) ([]SpecRow, error) {
	return h.RunSpec(scaleDiv, []Config{ByteUnsafe, ByteSafe, WordUnsafe, WordSafe})
}

// PrintFig7 renders the per-benchmark slowdown bars.
func PrintFig7(w io.Writer, rows []SpecRow) {
	keys := []string{"byte-unsafe", "byte-safe", "word-unsafe", "word-safe"}
	fmt.Fprintln(w, "Figure 7: SPEC-like slowdown vs uninstrumented baseline")
	fmt.Fprintln(w, "(paper averages: byte 2.81X [1.32-4.73], word 2.27X [1.34-3.80])")
	fmt.Fprintf(w, "%-10s", "bench")
	for _, k := range keys {
		fmt.Fprintf(w, " %14s", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Name)
		for _, k := range keys {
			fmt.Fprintf(w, " %13.2fX", r.Slowdown[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "geomean")
	for _, k := range keys {
		fmt.Fprintf(w, " %13.2fX", Geomean(rows, k))
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Figure 8: architectural enhancements.

// Fig8 measures the enhancement configurations.
func (h Harness) Fig8(scaleDiv int) ([]SpecRow, error) {
	return h.RunSpec(scaleDiv, []Config{
		ByteUnsafe, ByteSetClr, ByteBoth,
		WordUnsafe, WordSetClr, WordBoth,
	})
}

// PrintFig8 renders slowdowns plus the reduction the paper reports
// (difference between original and enhanced slowdowns).
func PrintFig8(w io.Writer, rows []SpecRow) {
	fmt.Fprintln(w, "Figure 8: impact of the proposed architectural enhancements")
	fmt.Fprintln(w, "(paper: set/clear alone ~16% slowdown reduction; both ~49%/47% byte/word)")
	keys := []string{"byte-unsafe", "byte-set/clear", "byte-both", "word-unsafe", "word-set/clear", "word-both"}
	fmt.Fprintf(w, "%-10s", "bench")
	for _, k := range keys {
		fmt.Fprintf(w, " %15s", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Name)
		for _, k := range keys {
			fmt.Fprintf(w, " %14.2fX", r.Slowdown[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "geomean")
	for _, k := range keys {
		fmt.Fprintf(w, " %14.2fX", Geomean(rows, k))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\nSlowdown reduction (original minus enhanced, in slowdown points):\n")
	fmt.Fprintf(w, "%-10s %18s %18s %18s %18s\n", "bench",
		"byte set/clear", "byte both", "word set/clear", "word both")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %17.0f%% %17.0f%% %17.0f%% %17.0f%%\n", r.Name,
			(r.Slowdown["byte-unsafe"]-r.Slowdown["byte-set/clear"])*100,
			(r.Slowdown["byte-unsafe"]-r.Slowdown["byte-both"])*100,
			(r.Slowdown["word-unsafe"]-r.Slowdown["word-set/clear"])*100,
			(r.Slowdown["word-unsafe"]-r.Slowdown["word-both"])*100)
	}
}

// ---------------------------------------------------------------------------
// Figure 9: cost breakdown.

// Fig9Row is one benchmark's instrumentation-cost breakdown, as fractions
// of baseline execution time (the paper normalises to the original run).
type Fig9Row struct {
	Name string
	// Overhead per class, per granularity key ("byte"/"word"), as a
	// multiple of baseline cycles.
	LoadCompute  map[string]float64
	LoadTagMem   map[string]float64
	StoreCompute map[string]float64
	StoreTagMem  map[string]float64
}

// Fig9 derives the breakdown from fresh byte/word runs.
func (h Harness) Fig9(scaleDiv int) ([]Fig9Row, error) {
	rows, err := h.RunSpec(scaleDiv, []Config{ByteUnsafe, WordUnsafe})
	if err != nil {
		return nil, err
	}
	var out []Fig9Row
	for _, r := range rows {
		fr := Fig9Row{
			Name:         r.Name,
			LoadCompute:  map[string]float64{},
			LoadTagMem:   map[string]float64{},
			StoreCompute: map[string]float64{},
			StoreTagMem:  map[string]float64{},
		}
		for key, g := range map[string]string{"byte-unsafe": "byte", "word-unsafe": "word"} {
			m := r.Measure[key]
			base := float64(r.BaseCycles)
			fr.LoadCompute[g] = float64(m.ByClass[isa.ClassLoadCompute]) / base
			fr.LoadTagMem[g] = float64(m.ByClass[isa.ClassLoadTagMem]) / base
			fr.StoreCompute[g] = float64(m.ByClass[isa.ClassStoreCompute]) / base
			fr.StoreTagMem[g] = float64(m.ByClass[isa.ClassStoreTagMem]) / base
		}
		out = append(out, fr)
	}
	return out, nil
}

// PrintFig9 renders the breakdown.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: breakdown of load/store instrumentation cost")
	fmt.Fprintln(w, "(fractions of baseline time; paper: computation >> tag memory access,")
	fmt.Fprintln(w, " loads >> stores, gap larger at byte level)")
	fmt.Fprintf(w, "%-10s %6s %12s %12s %12s %12s\n",
		"bench", "gran", "ld-compute", "ld-tag-mem", "st-compute", "st-tag-mem")
	for _, r := range rows {
		for _, g := range []string{"byte", "word"} {
			fmt.Fprintf(w, "%-10s %6s %11.2fx %11.2fx %11.2fx %11.2fx\n",
				r.Name, g, r.LoadCompute[g], r.LoadTagMem[g], r.StoreCompute[g], r.StoreTagMem[g])
		}
	}
}

// ---------------------------------------------------------------------------
// Table 1: the policy catalogue.

// PrintTable1 renders the policy catalogue.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: security policies in SHIFT")
	fmt.Fprintf(w, "%-6s %-32s %s\n", "Policy", "Attacks to Detect", "Description")
	for _, r := range policy.Catalog() {
		fmt.Fprintf(w, "%-6s %-32s %s\n", r.ID, r.Attack, r.Description)
	}
}

// ---------------------------------------------------------------------------
// Table 2: security evaluation.

// Table2 evaluates the corpus' Table-2 scenarios under plain SHIFT at
// byte and word granularity, one (scenario, granularity) cell per
// worker, in the paper's row order with byte before word.
func (h Harness) Table2() ([]*attacks.Outcome, error) {
	scns := attacks.Table2Scenarios()
	grans := []taint.Granularity{taint.Byte, taint.Word}
	results := make([]*attacks.Outcome, len(scns)*len(grans))
	err := h.parallelFor(len(results), func(i int) error {
		var err error
		results[i], err = attacks.EvaluateScenario(scns[i/len(grans)],
			shift.Options{Instrument: true, Granularity: grans[i%len(grans)]})
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// PrintTable2 renders the detection matrix.
func PrintTable2(w io.Writer, results []*attacks.Outcome) {
	fmt.Fprintln(w, "Table 2: security evaluation (each attack at byte and word level)")
	fmt.Fprintf(w, "%-14s %-26s %-8s %-24s %-28s %-5s %s\n",
		"CVE#", "Program", "Lang", "Attack Type", "Policies", "Gran", "Detected?")
	for _, o := range results {
		verdict := "Yes"
		if !o.Detected() {
			verdict = fmt.Sprintf("NO (benign=%s exploit=%s/%s unprotected=%s)",
				o.Benign.Kind, o.Exploit.Kind, o.Exploit.Policy, o.Unprotected.Kind)
		}
		_, gran := o.Opt.ResolvePolicy()
		a := o.Scenario.Attack
		fmt.Fprintf(w, "%-14s %-26s %-8s %-24s %-28s %-5s %s\n",
			a.CVE, a.Program, a.Language, a.Type, a.Policies, gran, verdict)
	}
}

// ---------------------------------------------------------------------------
// Table 3: code-size expansion.

// Table3Row is one program's static code growth.
type Table3Row struct {
	Name     string
	Original int
	Word     int
	Byte     int
}

// WordPct and BytePct return expansion percentages.
func (r Table3Row) WordPct() float64 { return (float64(r.Word)/float64(r.Original) - 1) * 100 }

// BytePct returns the byte-level expansion percentage.
func (r Table3Row) BytePct() float64 { return (float64(r.Byte)/float64(r.Original) - 1) * 100 }

// Table3 measures static instruction counts for the runtime library (the
// glibc analogue) and each benchmark.
func (h Harness) Table3() ([]Table3Row, error) {
	count := func(srcs []shift.Source, opt shift.Options) (int, error) {
		p, err := shift.Build(srcs, opt)
		if err != nil {
			return 0, err
		}
		return len(p.Text), nil
	}
	measure := func(name string, srcs []shift.Source, permissive []string) (Table3Row, error) {
		row := Table3Row{Name: name}
		conf := policy.DefaultConfig()
		for _, fn := range permissive {
			conf.NoTrack[fn] = true
		}
		var err error
		if row.Original, err = count(srcs, shift.Options{}); err != nil {
			return row, err
		}
		confW := *conf
		confW.Granularity = taint.Word
		if row.Word, err = count(srcs, shift.Options{Instrument: true, Policy: &confW}); err != nil {
			return row, err
		}
		confB := *conf
		confB.Granularity = taint.Byte
		if row.Byte, err = count(srcs, shift.Options{Instrument: true, Policy: &confB}); err != nil {
			return row, err
		}
		return row, nil
	}

	// The runtime library alone (glibc analogue): link it with a main
	// that references nothing so the counts are dominated by the library.
	benches := workload.All()
	rows := make([]Table3Row, 1+len(benches))
	err := h.parallelFor(len(rows), func(i int) error {
		var err error
		if i == 0 {
			rows[0], err = measure("rtlib",
				[]shift.Source{{Name: "main.mc", Text: "void main() { exit(0); }"}}, nil)
		} else {
			b := benches[i-1]
			rows[i], err = measure(b.Name,
				[]shift.Source{{Name: b.Name, Text: b.Source}}, b.Permissive)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable3 renders the expansion table.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: static code-size expansion (instruction counts)")
	fmt.Fprintln(w, "(paper: glibc +36/45%, SPEC +132%..288%; byte > word)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s\n",
		"program", "orig", "word", "word-exp", "byte", "byte-exp")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10d %9.0f%% %10d %9.0f%%\n",
			r.Name, r.Original, r.Word, r.WordPct(), r.Byte, r.BytePct())
	}
}

// ---------------------------------------------------------------------------
// §6.3 ablation: per-function NaT regeneration.

// Ablation compares keeping the NaT source live against regenerating it
// at every function entry and at every use (paper §4.4: the per-function
// strategy cost ~3X against keeping the token during development).
func (h Harness) Ablation(scaleDiv int) ([]SpecRow, error) {
	return h.RunSpec(scaleDiv, []Config{ByteUnsafe, BytePerFunc, BytePerUse})
}

// PrintAblation renders the comparison.
func PrintAblation(w io.Writer, rows []SpecRow) {
	fmt.Fprintln(w, "Ablation (§4.4): NaT source kept live vs regenerated per function / per use")
	fmt.Fprintf(w, "%-10s %14s %22s %18s %10s %9s\n",
		"bench", "byte-unsafe", "byte-nat-per-func", "byte-nat-per-use", "func-ratio", "use-ratio")
	for _, r := range rows {
		a := r.Slowdown["byte-unsafe"]
		pf := r.Slowdown["byte-nat-per-function"]
		pu := r.Slowdown["byte-nat-per-use"]
		fmt.Fprintf(w, "%-10s %13.2fX %21.2fX %17.2fX %9.2fx %8.2fx\n", r.Name, a, pf, pu, pf/a, pu/a)
	}
}

// Optimization measures the §4.4/§6.4 future-work compiler optimizations
// (kept mask register + tag-address reuse) against the stock pass.
func (h Harness) Optimization(scaleDiv int) ([]SpecRow, error) {
	return h.RunSpec(scaleDiv, []Config{ByteUnsafe, ByteOpt, WordUnsafe, WordOpt})
}

// PrintOptimization renders the comparison.
func PrintOptimization(w io.Writer, rows []SpecRow) {
	fmt.Fprintln(w, "Compiler optimizations (§4.4/§6.4 future work: kept mask + tag-address reuse)")
	fmt.Fprintf(w, "%-10s %14s %15s %14s %15s\n",
		"bench", "byte-unsafe", "byte-optimized", "word-unsafe", "word-optimized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %13.2fX %14.2fX %13.2fX %14.2fX\n", r.Name,
			r.Slowdown["byte-unsafe"], r.Slowdown["byte-optimized"],
			r.Slowdown["word-unsafe"], r.Slowdown["word-optimized"])
	}
	fmt.Fprintf(w, "%-10s %13.2fX %14.2fX %13.2fX %14.2fX\n", "geomean",
		Geomean(rows, "byte-unsafe"), Geomean(rows, "byte-optimized"),
		Geomean(rows, "word-unsafe"), Geomean(rows, "word-optimized"))
}

// ThreadRow is one thread count of the multi-threaded experiment.
type ThreadRow struct {
	Workers    int
	BaseCycles uint64
	Slowdown   map[string]float64
}

// Threads measures instrumented overhead for the multi-threaded workload
// (the paper's §4.4 future work) across worker counts. Cells (one worker
// count under one configuration, plus its baseline) run on the pool.
func (h Harness) Threads(scale int, workerCounts []int) ([]ThreadRow, error) {
	configs := []Config{ByteUnsafe, WordUnsafe}
	stride := 1 + len(configs)
	cells := make([]*shift.Result, len(workerCounts)*stride)
	err := h.parallelFor(len(cells), func(i int) error {
		k := workerCounts[i/stride]
		var opt shift.Options
		if j := i % stride; j != 0 {
			conf := workload.MTConfig()
			conf.Granularity = configs[j-1].Gran
			opt = shift.Options{Instrument: true, Policy: conf}
		}
		res, err := shift.BuildAndRun(
			[]shift.Source{{Name: "mt.mc", Text: workload.MTSource}},
			workload.MTWorld(scale, k), opt)
		if err != nil {
			return err
		}
		if res.Trap != nil || res.Alert != nil {
			return fmt.Errorf("threads k=%d: trap=%v alert=%v", k, res.Trap, res.Alert)
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ThreadRow
	for ki, k := range workerCounts {
		base := cells[ki*stride]
		row := ThreadRow{Workers: k, BaseCycles: base.Cycles, Slowdown: map[string]float64{}}
		for ci, cfg := range configs {
			res := cells[ki*stride+1+ci]
			if string(res.World.Stdout) != string(base.World.Stdout) {
				return nil, fmt.Errorf("threads k=%d %s: output diverged", k, cfg.Key)
			}
			row.Slowdown[cfg.Key] = float64(res.Cycles) / float64(base.Cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintThreads renders the multi-threaded overhead table.
func PrintThreads(w io.Writer, rows []ThreadRow) {
	fmt.Fprintln(w, "Multi-threaded guests (§4.4 future work): slowdown vs thread count")
	fmt.Fprintf(w, "%-8s %14s %14s\n", "workers", "byte-unsafe", "word-unsafe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %13.2fX %13.2fX\n", r.Workers,
			r.Slowdown["byte-unsafe"], r.Slowdown["word-unsafe"])
	}
}

// Names lists the experiment identifiers PrintAll understands.
func Names() []string {
	return []string{"table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "ablation", "opt", "threads", "sensitivity"}
}

// PrintAll runs and prints the named experiment ("all" runs everything).
// scaleDiv divides the reference input scale (1 = full, larger = faster);
// httpdRequests sizes the Figure 6 run.
func (h Harness) PrintAll(w io.Writer, name string, scaleDiv, httpdRequests int) error {
	want := func(n string) bool { return name == "all" || name == n }
	if !want("") && name != "all" {
		found := false
		for _, n := range Names() {
			if n == name {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(Names(), ", "))
		}
	}
	if want("table1") {
		PrintTable1(w)
		fmt.Fprintln(w)
	}
	if want("table2") {
		res, err := h.Table2()
		if err != nil {
			return err
		}
		PrintTable2(w, res)
		fmt.Fprintln(w)
	}
	if want("fig6") {
		sizes := []int{4 * 1024, 8 * 1024, 16 * 1024, 512 * 1024}
		rows, err := h.Fig6(httpdRequests, sizes)
		if err != nil {
			return err
		}
		PrintFig6(w, rows)
		fmt.Fprintln(w)
	}
	if want("fig7") {
		rows, err := h.Fig7(scaleDiv)
		if err != nil {
			return err
		}
		PrintFig7(w, rows)
		fmt.Fprintln(w)
	}
	if want("fig8") {
		rows, err := h.Fig8(scaleDiv)
		if err != nil {
			return err
		}
		PrintFig8(w, rows)
		fmt.Fprintln(w)
	}
	if want("fig9") {
		rows, err := h.Fig9(scaleDiv)
		if err != nil {
			return err
		}
		PrintFig9(w, rows)
		fmt.Fprintln(w)
	}
	if want("table3") {
		rows, err := h.Table3()
		if err != nil {
			return err
		}
		PrintTable3(w, rows)
		fmt.Fprintln(w)
	}
	if want("ablation") {
		rows, err := h.Ablation(scaleDiv)
		if err != nil {
			return err
		}
		PrintAblation(w, rows)
		fmt.Fprintln(w)
	}
	if want("opt") {
		rows, err := h.Optimization(scaleDiv)
		if err != nil {
			return err
		}
		PrintOptimization(w, rows)
		fmt.Fprintln(w)
	}
	if want("threads") {
		rows, err := h.Threads(8192/scaleDiv, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		PrintThreads(w, rows)
		fmt.Fprintln(w)
	}
	if want("sensitivity") {
		rows, err := h.Sensitivity(scaleDiv*4, []string{"gzip", "gcc", "mcf"})
		if err != nil {
			return err
		}
		PrintSensitivity(w, rows)
		fmt.Fprintln(w)
	}
	return nil
}
