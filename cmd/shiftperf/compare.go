package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkDef is the part of BENCHMARK.json -compare and the tests read.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// side is one set of runs of one metric on one workload.
type side struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// verdict judges B against A for a gated metric. worse is B's relative
// worsening of the median (negative when B is better). A change within
// the bound is "same" unless the spread of either side exceeds the
// bound, which leaves it "unresolved" — except when every B run beats
// every A run. An exact metric ignores the bound: any change is better
// or worse, and a value that varies between runs is unresolved.
func verdict(m metric, bound float64, a, b side, worse float64) string {
	if m.Exact {
		constant := func(s side) bool { return slices.Min(s.vals) == slices.Max(s.vals) }
		switch {
		case !constant(a) || !constant(b):
			return "unresolved"
		case worse > 0:
			return "worse"
		case worse < 0:
			return "better"
		}
		return "same"
	}
	if max(a.spread(), b.spread()) > bound {
		bBest, bWorst := slices.Min(b.vals), slices.Max(b.vals)
		aBest, aWorst := slices.Min(a.vals), slices.Max(a.vals)
		if m.Better == "higher" {
			bBest, bWorst, aBest, aWorst = -bWorst, -bBest, -aWorst, -aBest
		}
		if bWorst < aBest {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// runCompare prints, for every workload and metric both files hold, each
// side's median and quartiles, the relative change, the bound and a
// verdict. It reports false when any gated metric is worse or
// unresolved.
func runCompare(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	def, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	collect := func(path string) (map[string]map[string][]float64, error) {
		recs, err := readRecords(path)
		if err != nil {
			return nil, err
		}
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out, nil
	}
	A, err := collect(pathA)
	if err != nil {
		return false, err
	}
	B, err := collect(pathB)
	if err != nil {
		return false, err
	}

	ok := true
	fmt.Fprintf(w, "%-14s %-32s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range allMetrics() {
			av, bv := A[wl.name][m.Name], B[wl.name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a, b := newSide(av), newSide(bv)
			delta := 0.0
			if a.q2 != 0 {
				delta = (b.q2 - a.q2) / math.Abs(a.q2)
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			v, boundText := "-", "-"
			if bound, gated := bounds[m.Name]; gated {
				v = verdict(m, bound, a, b, worse)
				boundText = fmt.Sprintf("%.0f%%", bound*100)
				if v == "worse" || v == "unresolved" {
					ok = false
				}
			}
			fmt.Fprintf(w, "%-14s %-32s %28s %28s %+7.1f%% %6s  %s\n", wl.name, m.Name, a.text(), b.text(), delta*100, boundText, v)
		}
	}
	return ok, nil
}

func (s side) text() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.q2, s.q1, s.q3)
}
