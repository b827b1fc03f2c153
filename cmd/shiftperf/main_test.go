package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/trace"
)

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestMetricsMatchBenchmark pins the code's metric and workload lists to
// BENCHMARK.json: same names, units and directions, in the same order.
func TestMetricsMatchBenchmark(t *testing.T) {
	def, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range def.Workloads {
		wl = append(wl, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(wl, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", wl, code)
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in code", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range def.EndToEnd {
		if c := endToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in code", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
}

// TestWorkloadSmoke runs every workload for about a second, untraced and
// traced, and checks the result line: correct, nothing failed, and
// exactly the declared metrics printed.
func TestWorkloadSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+tr, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "7", "-seconds", "1", "-trace", tr, "-build-dir", dir}
				if tr == "1" {
					args = append(args, "-spans", dir+"/spans.json")
				}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := names(endToEnd)
				if tr == "1" {
					want = names(perLayer)
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !slices.Equal(got, want) {
					t.Errorf("printed metrics %v, want %v", got, want)
				}
				if tr == "1" {
					evs, err := readChromeFile(dir + "/spans.json")
					if err != nil || len(evs) < 2 {
						t.Fatalf("spans file: %d events, err %v", len(evs), err)
					}
				}
			})
		}
	}
}

// TestProbeMatchesPool: the probe's Acquire → RunOn → Release path sends
// the same bytes and reaches the same verdict as pool.RunTraced, the
// call shiftd makes, so the probe's layer times are shiftd's work.
func TestProbeMatchesPool(t *testing.T) {
	opt := shiftdOptions()
	prog, err := shift.Build(httpdSources(), opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(prog, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := newProbe(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	files := docs()
	for _, name := range []string{indexPage.file, page4k.file, exploitName, indexPage.file} {
		want, err := p.RunTraced(guestWorld(files, name), trace.New(512))
		if err != nil {
			t.Fatal(err)
		}
		g := pr.pool.Acquire()
		full := opt
		full.Trace = trace.New(512)
		got, err := pr.run(g, files, name, full)
		pr.pool.Release(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.World.NetOut, want.World.NetOut) {
			t.Errorf("%s: probe NetOut %.60q, pool %.60q", name, got.World.NetOut, want.World.NetOut)
		}
		if (got.Alert == nil) != (want.Alert == nil) || (got.Trap == nil) != (want.Trap == nil) {
			t.Fatalf("%s: probe alert %v trap %v, pool alert %v trap %v", name, got.Alert, got.Trap, want.Alert, want.Trap)
		}
		if want.Alert != nil && got.Alert.Violation.Policy != want.Alert.Violation.Policy {
			t.Errorf("%s: probe policy %s, pool %s", name, got.Alert.Violation.Policy, want.Alert.Violation.Policy)
		}
		pg := indexPage
		if name == page4k.file {
			pg = page4k
		}
		if err := pr.check(pg, name == exploitName, got, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestOpenLoopChargesFromDue drives a server that takes 20 ms a request
// at twice what two connections can carry. Timed from send, every
// request looks like 20 ms; timed from due, the growing backlog shows.
func TestOpenLoopChargesFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		if r.URL.Query().Get("file") != "" {
			w.WriteHeader(http.StatusForbidden)
			_, _ = w.Write([]byte("policy violation: H2"))
			return
		}
		_, _ = w.Write(indexPage.doc)
	}))
	defer srv.Close()
	o := newOutcome()
	g := newLoadGen(srv.URL, indexPage, 1, o)
	defer g.close()
	res := g.open(phaseOpen, 200, 500*time.Millisecond)
	if o.failed != 0 || o.attempted != 100 {
		t.Fatalf("attempted %d failed %d, want 100 and 0", o.attempted, o.failed)
	}
	if rtt := quantile(res.rtt, 0.5); rtt < 15 || rtt > 200 {
		t.Errorf("median round trip %.1f ms, want about 20", rtt)
	}
	if p90 := quantile(res.latency, 0.9); p90 < 250 {
		t.Errorf("p90 latency from due %.1f ms, want the backlog (≥250 ms)", p90)
	}
	for i := range res.latency {
		if res.latency[i]+1e-9 < res.rtt[i] || res.late[i] < 0 {
			t.Fatalf("request %d: latency %.2f < round trip %.2f or late %.2f < 0", i, res.latency[i], res.rtt[i], res.late[i])
		}
	}
}

// TestTamperedBodyCaught: one flipped byte in a benign body, or an
// exploit answered without an H2 violation, fails the integrity check.
func TestTamperedBodyCaught(t *testing.T) {
	tampered := append([]byte(nil), page4k.doc...)
	tampered[2048] ^= 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(tampered)
	}))
	defer srv.Close()
	o := newOutcome()
	g := newLoadGen(srv.URL, page4k, 1, o)
	defer g.close()
	if g.do(phaseOpen, 0) || o.failed != 1 {
		t.Errorf("tampered body passed: failed=%d", o.failed)
	}
	if err := checkResponse(page4k, false, http.StatusOK, page4k.doc); err != nil {
		t.Errorf("intact body rejected: %v", err)
	}
	if err := checkResponse(indexPage, true, http.StatusForbidden, []byte("policy violation (H1)")); err == nil {
		t.Error("exploit answered without H2 passed")
	}
	if err := checkResponse(indexPage, true, http.StatusOK, indexPage.doc); err == nil {
		t.Error("exploit answered 200 passed")
	}
}

// TestSeedDeterminism: a seed fixes exploit positions and suite round
// orders; another seed moves them.
func TestSeedDeterminism(t *testing.T) {
	positions := func(seed int64) []int {
		var out []int
		for i := 0; i < 10000; i++ {
			if exploitAt(seed, phaseOpen, i) {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := positions(1), positions(1)
	if !slices.Equal(a, b) {
		t.Error("seed 1 gave two exploit position sets")
	}
	if slices.Equal(a, positions(2)) {
		t.Error("seeds 1 and 2 gave the same exploit positions")
	}
	if len(a) < 150 || len(a) > 250 {
		t.Errorf("%d exploits in 10000 requests, want about 2%%", len(a))
	}
	ra, rb, rc := roundOrders(5, 8), roundOrders(5, 8), roundOrders(6, 8)
	same, differs := true, false
	for i := 0; i < 4; i++ {
		x, y, z := ra(), rb(), rc()
		same = same && slices.Equal(x, y)
		differs = differs || !slices.Equal(x, z)
	}
	if !same || !differs {
		t.Errorf("round orders: same seed equal %v, other seed differs %v", same, differs)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat, ops, sim := endToEnd[1], endToEnd[2], endToEnd[3]
	if lat.Name != "latency_p50_ms" || ops.Name != "ops_per_s" || sim.Name != "sim_slowdown" {
		t.Fatal("endToEnd order changed")
	}
	judge := func(m metric, a, b []float64) string {
		sa, sb := newSide(a), newSide(b)
		worse := (sb.q2 - sa.q2) / sa.q2
		if m.Better == "higher" {
			worse = -worse
		}
		return verdict(m, 0.1, sa, sb, worse)
	}
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lat, []float64{10, 10.1, 9.9, 10}, []float64{10.2, 10, 10.1, 9.9}, "same"},
		{lat, []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, "worse"},
		{lat, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, "better"},
		{ops, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, "worse"},
		{lat, []float64{10, 14, 7, 10}, []float64{10, 10, 10, 10}, "unresolved"},
		{lat, []float64{10, 14, 12, 13}, []float64{9, 8, 9.5, 9}, "better"},
		{sim, []float64{2, 2, 2}, []float64{2, 2, 2}, "same"},
		{sim, []float64{2, 2, 2}, []float64{2, 2, 2.0001}, "unresolved"},
		{sim, []float64{2, 2, 2}, []float64{2.0001, 2.0001}, "worse"},
		{sim, []float64{2, 2, 2}, []float64{1.9, 1.9}, "better"},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareEndToEnd feeds -compare two record files.
func TestCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mk := func(path string, p50 float64) {
		var recs []record
		for i := 0; i < 5; i++ {
			r := result{Correct: true, Attempted: 1, Metrics: map[string]value{
				"latency_p50_ms": {p50 + float64(i)*0.01, "ms"},
				"sim_slowdown":   {2.069, "x"},
			}}
			recs = append(recs, record{"serve-index", int64(i), 0, r})
		}
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
	}
	mk(dir+"/a", 1.0)
	mk(dir+"/b", 1.0)
	mk(dir+"/c", 1.5)
	var out bytes.Buffer
	if ok, err := runCompare(&out, "../../BENCHMARK.json", dir+"/a", dir+"/b"); err != nil || !ok {
		t.Fatalf("a vs b: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := runCompare(&out, "../../BENCHMARK.json", dir+"/a", dir+"/c"); err != nil || ok {
		t.Fatalf("a vs c: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row:\n%s", out.String())
	}
}
