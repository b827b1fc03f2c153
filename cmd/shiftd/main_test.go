package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"shift/internal/metrics"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/workload"
)

// parseArgs parses a shiftd command line on a private flag set.
func parseArgs(args ...string) (*config, error) {
	fs := flag.NewFlagSet("shiftd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// The benchmark's serve workloads start shiftd with nothing but -addr,
// so its defaults are the served configuration: an instrumented guest
// under the HTTPD policy, checked by the decoupled tag pipeline, fully
// instrumented, in a pool of four.
func TestDefaultConfiguration(t *testing.T) {
	c, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	opt := c.opt
	if !opt.Instrument {
		t.Error("default guest is not instrumented")
	}
	if !reflect.DeepEqual(opt.Policy, workload.HTTPDConfig()) {
		t.Errorf("default policy = %+v, want workload.HTTPDConfig()", opt.Policy)
	}
	if opt.Decoupled != 1 {
		t.Errorf("Decoupled = %d, want 1 (tag pipeline on)", opt.Decoupled)
	}
	if opt.Selective {
		t.Error("default guest is selectively instrumented")
	}
	if c.poolSize != 4 {
		t.Errorf("pool size = %d, want 4", c.poolSize)
	}
	if c.addr != "127.0.0.1:8080" {
		t.Errorf("addr = %q, want 127.0.0.1:8080", c.addr)
	}

	// -tagpipe=false is the inline checker; a stray argument is refused.
	if c, err := parseArgs("-tagpipe=false"); err != nil || c.opt.Decoupled != 0 {
		t.Errorf("-tagpipe=false: err %v, want Decoupled 0", err)
	}
	if _, err := parseArgs("extra"); err == nil {
		t.Error("stray argument accepted")
	}
}

// testServer builds one pooled server per test binary: pool fill means
// instrumenting the guest once per guest, which dominates test time.
var testServer = sync.OnceValues(func() (*server, error) {
	c, err := parseArgs()
	if err != nil {
		return nil, err
	}
	p, err := buildPool(2, c.opt)
	if err != nil {
		return nil, err
	}
	return newServer(p, metrics.NewRegistry()), nil
})

func handlerFixture(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, err := testServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeBenignPage(t *testing.T) {
	_, ts := handlerFixture(t)
	want := string(docRoot()["/www/htdocs/index.html"])
	for _, path := range []string{"/index.html", "/"} {
		status, body := get(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, status)
		}
		if body != want {
			t.Fatalf("GET %s: body %q, want %q", path, body, want)
		}
	}
}

func TestServeMissingPageIs404(t *testing.T) {
	_, ts := handlerFixture(t)
	status, body := get(t, ts.URL+"/nope.html")
	if status != http.StatusNotFound {
		t.Fatalf("status %d body %q, want 404", status, body)
	}
	if !strings.Contains(body, "404") {
		t.Fatalf("body %q should carry the guest's 404 line", body)
	}
}

// A traversal exploit via the CGI-style file parameter must be blocked
// by the guest's H2 check, answered with 403 carrying the forensic
// bundle, and the bundle must be retrievable at /forensics.
func TestServeExploitIs403WithBundle(t *testing.T) {
	_, ts := handlerFixture(t)
	status, body := get(t, ts.URL+"/?file=..%2F..%2Fetc%2Fpasswd")
	if status != http.StatusForbidden {
		t.Fatalf("status %d body %.200q, want 403", status, body)
	}
	for _, want := range []string{"policy violation", "H2", "/etc/passwd", "provenance"} {
		if !strings.Contains(body, want) {
			t.Errorf("403 body missing %q:\n%.500s", want, body)
		}
	}
	status, bundle := get(t, ts.URL+"/forensics")
	if status != http.StatusOK || !strings.Contains(bundle, "H2") {
		t.Fatalf("/forensics: status %d body %.200q", status, bundle)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := handlerFixture(t)
	if st, _ := get(t, ts.URL+"/index.html"); st != http.StatusOK {
		t.Fatalf("warmup request: status %d", st)
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	for _, want := range []string{
		"shiftd_requests_total", "shiftd_request_ns", "shift_pool_size 2",
		"shift_pool_busy 0", "shift_pool_recycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if st := s.pool.Stats(); st.Busy != 0 {
		t.Fatalf("pool busy=%d after requests drained", st.Busy)
	}
}

// requestName's precedence: file param over path, index.html for root,
// and the param is what lets `..` survive client-side canonicalization.
func TestRequestName(t *testing.T) {
	for _, c := range []struct{ url, want string }{
		{"/index.html", "index.html"},
		{"/", "index.html"},
		{"/page4096.html", "page4096.html"},
		{"/?file=../../etc/passwd", "../../etc/passwd"},
		{"/index.html?file=secret", "secret"},
	} {
		r := httptest.NewRequest(http.MethodGet, c.url, nil)
		if got := requestName(r); got != c.want {
			t.Errorf("requestName(%s) = %q, want %q", c.url, got, c.want)
		}
	}
}

// Concurrent mixed traffic over a pool smaller than the client count:
// every benign response byte-exact, every exploit detected.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, _ := handlerFixture(t)
	want := string(docRoot()["/www/htdocs/index.html"])
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		evil := i%4 == 3
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "index.html"
			if evil {
				name = exploitName
			}
			status, body := s.serve(name)
			switch {
			case evil && status != http.StatusForbidden:
				errs <- fmt.Errorf("exploit: status %d body %.120q", status, body)
			case !evil && (status != http.StatusOK || string(body) != want):
				errs <- fmt.Errorf("benign: status %d body %.120q", status, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.pool.Stats(); st.Busy != 0 {
		t.Fatalf("pool busy=%d after drain", st.Busy)
	}
}

// A selectively instrumented guest pool serves the same traffic with
// the same verdicts, and the site accounting lands on the registry as
// the shift_selective_sites_* gauges.
func TestSelectivePoolEquivalentVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second guest pool")
	}
	c, err := parseArgs("-selective")
	if err != nil {
		t.Fatal(err)
	}
	opt := c.opt
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(prog, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.InstrStats.Sites == 0 || opt.InstrStats.Kept == 0 {
		t.Fatalf("selective build stats empty: %+v", *opt.InstrStats)
	}
	reg := metrics.NewRegistry()
	shift.RegisterSelectiveMetrics(reg, opt.InstrStats)
	if got := reg.Gauge("shift_selective_sites_kept").Value(); got != uint64(opt.InstrStats.Kept) {
		t.Errorf("kept gauge = %d, want %d", got, opt.InstrStats.Kept)
	}
	ts := httptest.NewServer(newServer(p, reg).handler())
	defer ts.Close()

	want := string(docRoot()["/www/htdocs/index.html"])
	if status, body := get(t, ts.URL+"/index.html"); status != http.StatusOK || body != want {
		t.Fatalf("benign page: status %d body %q", status, body)
	}
	status, body := get(t, ts.URL+"/?file=..%2F..%2Fetc%2Fpasswd")
	if status != http.StatusForbidden || !strings.Contains(body, "H2") {
		t.Fatalf("exploit: status %d body %.200q, want 403 with H2", status, body)
	}
}
