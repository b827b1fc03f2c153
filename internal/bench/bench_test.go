package bench

import (
	"bytes"
	"strings"
	"testing"

	"shift/internal/attacks"
)

// The bench tests run the experiments at a small scale and assert the
// *orderings* the paper reports, not absolute numbers.

const testScaleDiv = 16

func TestFig7Orderings(t *testing.T) {
	rows, err := Harness{}.Fig7(testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		for key, s := range r.Slowdown {
			if s <= 1.0 {
				t.Errorf("%s %s: slowdown %.2f <= 1", r.Name, key, s)
			}
		}
		if r.Slowdown["byte-safe"] > r.Slowdown["byte-unsafe"]+1e-9 {
			t.Errorf("%s: safe input costs more than unsafe at byte level", r.Name)
		}
		if r.Slowdown["word-safe"] > r.Slowdown["word-unsafe"]+1e-9 {
			t.Errorf("%s: safe input costs more than unsafe at word level", r.Name)
		}
	}
	if Geomean(rows, "word-unsafe") > Geomean(rows, "byte-unsafe") {
		t.Errorf("word tracking (%.2fX) costs more than byte (%.2fX)",
			Geomean(rows, "word-unsafe"), Geomean(rows, "byte-unsafe"))
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("report lacks geomean row")
	}
}

func TestFig8EnhancementsReduce(t *testing.T) {
	rows, err := Harness{}.Fig8(testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown["byte-both"] > r.Slowdown["byte-set/clear"]+1e-9 ||
			r.Slowdown["byte-set/clear"] > r.Slowdown["byte-unsafe"]+1e-9 {
			t.Errorf("%s: byte enhancements not monotone: %.2f %.2f %.2f", r.Name,
				r.Slowdown["byte-unsafe"], r.Slowdown["byte-set/clear"], r.Slowdown["byte-both"])
		}
		if r.Slowdown["word-both"] > r.Slowdown["word-unsafe"]+1e-9 {
			t.Errorf("%s: word enhancements did not help", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
	if !strings.Contains(buf.String(), "reduction") {
		t.Error("report lacks the reduction table")
	}
}

func TestFig9ComputationDominates(t *testing.T) {
	rows, err := Harness{}.Fig9(testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claims: computation incurs much more overhead than
	// tag memory access, and load instrumentation outweighs stores.
	// Both should hold in aggregate.
	var ldc, ldm, stc, stm float64
	for _, r := range rows {
		ldc += r.LoadCompute["byte"]
		ldm += r.LoadTagMem["byte"]
		stc += r.StoreCompute["byte"]
		stm += r.StoreTagMem["byte"]
	}
	if ldc <= ldm {
		t.Errorf("load computation (%.2f) not above tag memory access (%.2f)", ldc, ldm)
	}
	if stc <= stm {
		t.Errorf("store computation (%.2f) not above tag memory access (%.2f)", stc, stm)
	}
	if ldc+ldm <= stc+stm {
		t.Errorf("loads (%.2f) not above stores (%.2f)", ldc+ldm, stc+stm)
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	if !strings.Contains(buf.String(), "ld-compute") {
		t.Error("report incomplete")
	}
}

func TestFig6OverheadSmallAndShrinking(t *testing.T) {
	rows, err := Harness{}.Fig6(20, []int{4 * 1024, 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	small := 1/rows[0].RelLatency["byte-unsafe"] - 1
	large := 1/rows[1].RelLatency["byte-unsafe"] - 1
	if small > 0.25 {
		t.Errorf("4KB overhead %.1f%% is not server-like", small*100)
	}
	if large >= small {
		t.Errorf("overhead did not shrink with file size: %.3f%% -> %.3f%%", small*100, large*100)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if !strings.Contains(buf.String(), "4KB") {
		t.Error("report lacks file sizes")
	}
}

func TestTable2AllDetected(t *testing.T) {
	results, err := Harness{}.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 { // 8 attacks x 2 granularities
		t.Fatalf("got %d results, want 16", len(results))
	}
	for _, o := range results {
		if !o.Detected() {
			t.Errorf("%s at %s not detected", o.Scenario.Name, attacks.Label(o.Opt))
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, results)
	if strings.Contains(buf.String(), "NO (") {
		t.Error("report contains failures")
	}
}

func TestTable3Expansion(t *testing.T) {
	rows, err := Harness{}.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Name != "rtlib" || len(rows) != 9 {
		t.Fatalf("rows: %d, first %q", len(rows), rows[0].Name)
	}
	for _, r := range rows {
		if !(r.Original < r.Word && r.Word < r.Byte) {
			t.Errorf("%s: counts not increasing: %d %d %d", r.Name, r.Original, r.Word, r.Byte)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "rtlib") {
		t.Error("report incomplete")
	}
}

func TestAblationOrdering(t *testing.T) {
	rows, err := Harness{}.Ablation(testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown["byte-nat-per-use"] <= r.Slowdown["byte-unsafe"] {
			t.Errorf("%s: per-use regeneration not more expensive", r.Name)
		}
	}
}

func TestPrintAllUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := (Harness{}).PrintAll(&buf, "fig99", 16, 5); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPrintTable1(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	for _, id := range []string{"H1", "H5", "L3"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("table 1 lacks %s", id)
		}
	}
}

// TestSensitivityOrderingsHold verifies that the paper's ordering claims
// are robust to the cost model: every skewed variant preserves
// byte >= word > enhanced > 1.
func TestSensitivityOrderingsHold(t *testing.T) {
	rows, err := Harness{}.Sensitivity(testScaleDiv, []string{"gzip", "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(SensitivityModels()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Orderings {
			t.Errorf("%s under %s: orderings violated (byte %.2f word %.2f enh %.2f)",
				r.Bench, r.Model, r.Byte, r.Word, r.Enhanced)
		}
	}
	var buf bytes.Buffer
	PrintSensitivity(&buf, rows)
	if !strings.Contains(buf.String(), "hold") {
		t.Error("report incomplete")
	}
}

// TestThreadsExperiment smoke-tests the multi-threaded measurement.
func TestThreadsExperiment(t *testing.T) {
	rows, err := Harness{}.Threads(1024, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown["byte-unsafe"] <= 1 {
			t.Errorf("k=%d: no overhead measured", r.Workers)
		}
	}
	var buf bytes.Buffer
	PrintThreads(&buf, rows)
	if !strings.Contains(buf.String(), "workers") {
		t.Error("report incomplete")
	}
}

// TestOptimizationExperiment: the §6.4 optimizations help every benchmark.
func TestOptimizationExperiment(t *testing.T) {
	rows, err := Harness{}.Optimization(testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown["byte-optimized"] >= r.Slowdown["byte-unsafe"] {
			t.Errorf("%s: optimization did not help", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintOptimization(&buf, rows)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("report incomplete")
	}
}
