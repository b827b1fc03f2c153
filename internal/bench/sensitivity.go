package bench

import (
	"fmt"
	"io"

	"shift/internal/machine"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/workload"
)

// Sensitivity analysis: the reproduction's absolute slowdowns depend on
// the cycle cost model, but the paper's *orderings* should not. This
// experiment re-measures the byte/word/enhanced triple under deliberately
// skewed cost models and reports whether every ordering claim survives.

// CostModel names a cost-model variant.
type CostModel struct {
	Name  string
	Costs machine.Costs
}

// SensitivityModels returns the sweep: the default model plus variants
// that stress each lever the instrumentation touches.
func SensitivityModels() []CostModel {
	mk := func(name string, f func(*machine.Costs)) CostModel {
		c := machine.DefaultCosts()
		f(&c)
		return CostModel{Name: name, Costs: c}
	}
	return []CostModel{
		mk("default", func(c *machine.Costs) {}),
		mk("slow-loads", func(c *machine.Costs) { c.Ld = 4; c.LdMiss = 40 }),
		mk("fast-loads", func(c *machine.Costs) { c.Ld = 1; c.LdMiss = 0 }),
		mk("cheap-movl", func(c *machine.Costs) { c.Movl = 1 }),
		mk("dear-spill", func(c *machine.Costs) { c.SpillFill = 6 }),
		mk("dear-branch", func(c *machine.Costs) { c.Br = 3 }),
		mk("free-defer", func(c *machine.Costs) { c.Defer = 0 }),
	}
}

// SensitivityRow is one cost model's result for one benchmark.
type SensitivityRow struct {
	Model     string
	Bench     string
	Byte      float64
	Word      float64
	Enhanced  float64 // byte with both enhancement instructions
	Orderings bool    // byte >= word > enhanced and all > 1
}

// Sensitivity runs the sweep over the named benchmarks (all when empty),
// one (benchmark, cost model) point per worker-pool cell.
func (h Harness) Sensitivity(scaleDiv int, benchNames []string) ([]SensitivityRow, error) {
	wanted := map[string]bool{}
	for _, n := range benchNames {
		wanted[n] = true
	}
	var benches []*workload.Benchmark
	for _, b := range workload.All() {
		if len(wanted) == 0 || wanted[b.Name] {
			benches = append(benches, b)
		}
	}
	models := SensitivityModels()
	rows := make([]SensitivityRow, len(benches)*len(models))
	err := h.parallelFor(len(rows), func(i int) error {
		b := benches[i/len(models)]
		scale := b.RefScale / scaleDiv
		if scale < 64 {
			scale = 64
		}
		var err error
		rows[i], err = sensitivityPoint(b, scale, models[i%len(models)])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sensitivityPoint measures one (benchmark, cost model) cell.
func sensitivityPoint(b *workload.Benchmark, scale int, cm CostModel) (SensitivityRow, error) {
	costs := cm.Costs
	run := func(opt shift.Options) (uint64, error) {
		opt.Costs = &costs
		res, err := shift.BuildAndRun(
			[]shift.Source{{Name: b.Name, Text: b.Source}}, b.World(scale), opt)
		if err != nil {
			return 0, err
		}
		if res.Trap != nil || res.Alert != nil {
			return 0, fmt.Errorf("%s/%s: trap=%v alert=%v", b.Name, cm.Name, res.Trap, res.Alert)
		}
		return res.Cycles, nil
	}

	confB := b.Config()
	confB.Granularity = taint.Byte
	confW := b.Config()
	confW.Granularity = taint.Word

	base, err := run(shift.Options{Policy: confB})
	if err != nil {
		return SensitivityRow{}, err
	}
	byteC, err := run(shift.Options{Instrument: true, Policy: confB})
	if err != nil {
		return SensitivityRow{}, err
	}
	wordC, err := run(shift.Options{Instrument: true, Policy: confW})
	if err != nil {
		return SensitivityRow{}, err
	}
	enhC, err := run(shift.Options{Instrument: true, Policy: confB,
		Features: machine.Features{SetClrNaT: true, NaTAwareCmp: true}})
	if err != nil {
		return SensitivityRow{}, err
	}

	row := SensitivityRow{
		Model:    cm.Name,
		Bench:    b.Name,
		Byte:     float64(byteC) / float64(base),
		Word:     float64(wordC) / float64(base),
		Enhanced: float64(enhC) / float64(base),
	}
	row.Orderings = row.Byte >= row.Word && row.Word > row.Enhanced && row.Enhanced > 1
	return row, nil
}

// PrintSensitivity renders the sweep.
func PrintSensitivity(w io.Writer, rows []SensitivityRow) {
	fmt.Fprintln(w, "Cost-model sensitivity: do the paper's orderings survive skewed models?")
	fmt.Fprintf(w, "%-10s %-12s %8s %8s %10s %10s\n", "bench", "model", "byte", "word", "enhanced", "orderings")
	for _, r := range rows {
		ok := "hold"
		if !r.Orderings {
			ok = "VIOLATED"
		}
		fmt.Fprintf(w, "%-10s %-12s %7.2fX %7.2fX %9.2fX %10s\n",
			r.Bench, r.Model, r.Byte, r.Word, r.Enhanced, ok)
	}
}
