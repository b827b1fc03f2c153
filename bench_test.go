// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure. Each runs the corresponding experiment through the
// internal/bench harness and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation at a reduced scale (cmd/shiftbench runs the full one).
package repro_test

import (
	"testing"

	"shift/internal/bench"
	"shift/internal/shift"
	"shift/internal/workload"
)

// benchScaleDiv shrinks the reference inputs so the full suite stays
// quick under `go test -bench`; use cmd/shiftbench for reference scale.
const benchScaleDiv = 8

// BenchmarkTable2AttackDetection runs the full security evaluation:
// 8 attacks x 2 granularities x {benign, exploit, unprotected}.
func BenchmarkTable2AttackDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.Harness{}.Table2()
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, r := range results {
			if r.Detected() {
				detected++
			}
		}
		if detected != len(results) {
			b.Fatalf("only %d/%d detected", detected, len(results))
		}
		b.ReportMetric(float64(detected), "detected")
	}
}

// BenchmarkFig6Apache measures server overhead at the paper's four file
// sizes and reports the worst-case (4KB) overhead percentage.
func BenchmarkFig6Apache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Fig6(50, []int{4 * 1024, 8 * 1024, 16 * 1024, 512 * 1024})
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if ov := (1/r.RelLatency["byte-unsafe"] - 1) * 100; ov > worst {
				worst = ov
			}
		}
		b.ReportMetric(worst, "worst-overhead-%")
	}
}

// BenchmarkFig7Spec measures the SPEC-like slowdowns (byte/word x
// unsafe/safe) and reports the geometric means.
func BenchmarkFig7Spec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Fig7(benchScaleDiv)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.Geomean(rows, "byte-unsafe"), "byte-slowdown-X")
		b.ReportMetric(bench.Geomean(rows, "word-unsafe"), "word-slowdown-X")
	}
}

// BenchmarkFig8Enhancements measures the enhancement configurations and
// reports the slowdown-point reduction of the full enhancement set.
func BenchmarkFig8Enhancements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Fig8(benchScaleDiv)
		if err != nil {
			b.Fatal(err)
		}
		reduction := bench.Geomean(rows, "byte-unsafe") - bench.Geomean(rows, "byte-both")
		b.ReportMetric(reduction*100, "byte-both-reduction-pts")
	}
}

// BenchmarkFig9Breakdown derives the instrumentation cost breakdown and
// reports the load-computation share (the paper's dominant component).
func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Fig9(benchScaleDiv)
		if err != nil {
			b.Fatal(err)
		}
		var ldc, ldm float64
		for _, r := range rows {
			ldc += r.LoadCompute["byte"]
			ldm += r.LoadTagMem["byte"]
		}
		b.ReportMetric(ldc/float64(len(rows)), "ld-compute-x-base")
		b.ReportMetric(ldm/float64(len(rows)), "ld-tag-mem-x-base")
	}
}

// BenchmarkTable3CodeSize measures static code expansion and reports the
// byte-level expansion of the runtime library (the glibc analogue).
func BenchmarkTable3CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BytePct(), "rtlib-byte-expansion-%")
	}
}

// BenchmarkAblationNatPerFunction measures the §4.4 ablation (regenerate
// the NaT source per function) and reports the cost ratio.
func BenchmarkAblationNatPerFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Harness{}.Ablation(benchScaleDiv)
		if err != nil {
			b.Fatal(err)
		}
		base := bench.Geomean(rows, "byte-unsafe")
		b.ReportMetric(bench.Geomean(rows, "byte-nat-per-function")/base, "per-function-ratio")
		b.ReportMetric(bench.Geomean(rows, "byte-nat-per-use")/base, "per-use-ratio")
	}
}

// BenchmarkSimulator measures raw simulation speed (guest instructions
// retired per host second) on the gzip benchmark baseline.
func BenchmarkSimulator(b *testing.B) {
	wl := workload.GzipLike
	prog, err := shift.Build([]shift.Source{{Name: "gzip.mc", Text: wl.Source}}, shift.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		res, err := shift.Run(prog, wl.World(wl.RefScale/benchScaleDiv), shift.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Trap != nil {
			b.Fatal(res.Trap)
		}
		retired += res.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "guest-instr/s")
}

// BenchmarkBuildPipeline measures the compiler+instrumenter end to end.
func BenchmarkBuildPipeline(b *testing.B) {
	wl := workload.GccLike
	for i := 0; i < b.N; i++ {
		if _, err := shift.Build([]shift.Source{{Name: "gcc.mc", Text: wl.Source}},
			shift.Options{Instrument: true}); err != nil {
			b.Fatal(err)
		}
	}
}
