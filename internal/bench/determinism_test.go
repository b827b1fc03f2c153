package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The determinism golden test pins the simulator's observable numbers —
// per-run cycle counts, retired-instruction counts, and per-cost-class
// breakdowns — for the Figure 7 and Figure 8 configurations at a reduced
// scale. The fast-path engine (software TLB, bulk memory ops) and the
// parallel experiment harness are pure performance work: every number
// that feeds an EXPERIMENTS.md table must be bit-identical to the
// serial, pre-TLB implementation that produced this golden file.
//
// Regenerate (only when a change is *supposed* to move the numbers):
//
//	go test ./internal/bench -run TestDeterminismGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the determinism golden file")

// goldenScaleDiv shrinks inputs so the golden suite stays fast; every
// benchmark clamps to its minimum scale, which still exercises the whole
// build-instrument-run pipeline.
const goldenScaleDiv = 1 << 20

// goldenConfig is one configuration's pinned measurement.
type goldenConfig struct {
	Cycles  uint64   `json:"cycles"`
	Retired uint64   `json:"retired"`
	ByClass []uint64 `json:"byClass"`
}

// goldenRow is one benchmark's pinned measurements.
type goldenRow struct {
	Name    string                  `json:"name"`
	Base    uint64                  `json:"baseCycles"`
	Configs map[string]goldenConfig `json:"configs"`
}

// goldenFile is the serialized golden state.
type goldenFile struct {
	ScaleDiv int         `json:"scaleDiv"`
	Rows     []goldenRow `json:"rows"`
}

// goldenConfigs covers Figure 7 (byte/word x unsafe/safe) and Figure 8
// (the architectural enhancements), so both figures' slowdown ratios are
// pinned transitively: a ratio of two pinned integers cannot drift.
func goldenConfigs() []Config {
	return []Config{
		ByteUnsafe, ByteSafe, WordUnsafe, WordSafe,
		ByteSetClr, ByteBoth, WordSetClr, WordBoth,
	}
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "determinism_golden.json")
}

func measureGolden(t *testing.T) goldenFile {
	t.Helper()
	rows, err := Harness{}.RunSpec(goldenScaleDiv, goldenConfigs())
	if err != nil {
		t.Fatal(err)
	}
	out := goldenFile{ScaleDiv: goldenScaleDiv}
	for _, r := range rows {
		gr := goldenRow{Name: r.Name, Base: r.BaseCycles, Configs: map[string]goldenConfig{}}
		for key, m := range r.Measure {
			gr.Configs[key] = goldenConfig{Cycles: m.Cycles, Retired: m.Retired, ByClass: m.ByClass}
		}
		out.Rows = append(out.Rows, gr)
	}
	return out
}

func TestDeterminismGolden(t *testing.T) {
	got := measureGolden(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath(t))
		return
	}

	data, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.ScaleDiv != got.ScaleDiv {
		t.Fatalf("golden scaleDiv %d != %d", want.ScaleDiv, got.ScaleDiv)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("golden has %d rows, got %d", len(want.Rows), len(got.Rows))
	}
	for i, wr := range want.Rows {
		gr := got.Rows[i]
		if wr.Name != gr.Name {
			t.Fatalf("row %d: name %q != %q", i, wr.Name, gr.Name)
		}
		if wr.Base != gr.Base {
			t.Errorf("%s: base cycles %d != golden %d", gr.Name, gr.Base, wr.Base)
		}
		for key, wc := range wr.Configs {
			gc, ok := gr.Configs[key]
			if !ok {
				t.Errorf("%s: config %s missing", gr.Name, key)
				continue
			}
			if gc.Cycles != wc.Cycles {
				t.Errorf("%s/%s: cycles %d != golden %d", gr.Name, key, gc.Cycles, wc.Cycles)
			}
			if gc.Retired != wc.Retired {
				t.Errorf("%s/%s: retired %d != golden %d", gr.Name, key, gc.Retired, wc.Retired)
			}
			if !reflect.DeepEqual(gc.ByClass, wc.ByClass) {
				t.Errorf("%s/%s: cost-class breakdown %v != golden %v", gr.Name, key, gc.ByClass, wc.ByClass)
			}
		}
		// Slowdown ratios (the Figure 7/8 bars) are quotients of pinned
		// integers; re-derive them from the golden to make the guarantee
		// explicit in the failure output.
		for key, wc := range wr.Configs {
			gc := gr.Configs[key]
			wantRatio := float64(wc.Cycles) / float64(wr.Base)
			gotRatio := float64(gc.Cycles) / float64(gr.Base)
			if wantRatio != gotRatio {
				t.Errorf("%s/%s: slowdown %v != golden %v", gr.Name, key, gotRatio, wantRatio)
			}
		}
	}
}
