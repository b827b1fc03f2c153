package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"shift/internal/metrics"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/trace"
	"shift/internal/workload"
)

// docRoot is the server's built-in document tree, keyed by the guest
// paths the Figure-6 server resolves requests against. The maps are
// read-only after construction, so every concurrent guest shares them.
func docRoot() map[string][]byte {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	return map[string][]byte{
		"/www/htdocs/index.html":    []byte("<html>shiftd: every byte of this page was served by an instrumented guest</html>\n"),
		"/www/htdocs/page4096.html": page,
	}
}

// server fronts the guest pool with HTTP: each request becomes one
// 64-byte guest request record, one pooled instrumented guest run, and
// one HTTP response derived from the guest's network output. Policy
// violations surface as 403 with the forensic bundle as the body.
type server struct {
	pool *pool.Pool
	docs map[string][]byte
	reg  *metrics.Registry

	requests *metrics.Counter
	alerts   *metrics.Counter
	failures *metrics.Counter
	latency  *metrics.Histogram

	mu         sync.Mutex
	lastBundle string // most recent forensic bundle, for /forensics
}

// latencyBounds are the request-latency histogram's bucket edges in
// nanoseconds (100µs .. 1s).
var latencyBounds = []uint64{
	100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
	30_000_000, 100_000_000, 300_000_000, 1_000_000_000,
}

func newServer(p *pool.Pool, reg *metrics.Registry) *server {
	s := &server{
		pool:     p,
		docs:     docRoot(),
		reg:      reg,
		requests: reg.Counter("shiftd_requests_total"),
		alerts:   reg.Counter("shiftd_alerts_total"),
		failures: reg.Counter("shiftd_failures_total"),
		latency:  reg.Histogram("shiftd_request_ns", latencyBounds),
	}
	p.RegisterMetrics(reg)
	return s
}

// requestName extracts the guest file name from an HTTP request: the
// `file` query parameter when present (the CGI-style form a traversal
// exploit must use, since HTTP clients and muxes canonicalize `..`
// away from paths), the URL path otherwise, `index.html` for the root.
func requestName(r *http.Request) string {
	if f := r.URL.Query().Get("file"); f != "" {
		return f
	}
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" {
		return "index.html"
	}
	return name
}

// world builds the per-request guest world: shared read-only document
// tree, one fixed-size request record as network input.
func (s *server) world(name string) *shift.World {
	w := shift.NewWorld()
	w.Files = s.docs
	rec := make([]byte, workload.HTTPDRequestSize)
	copy(rec, "GET "+name)
	w.NetIn = rec
	return w
}

// serve runs one request through the pool and classifies the outcome.
// It is the transport-independent core of the HTTP handler, so tests
// can drive the production path without a socket.
func (s *server) serve(name string) (status int, body []byte) {
	s.requests.Inc()
	start := time.Now()
	tr := trace.New(512)
	res, err := s.pool.RunTraced(s.world(name), tr)
	s.latency.Observe(uint64(time.Since(start).Nanoseconds()))
	if err != nil {
		s.failures.Inc()
		return http.StatusInternalServerError, []byte(fmt.Sprintf("host error: %v\n", err))
	}
	if res.Alert != nil {
		s.alerts.Inc()
		bundle := res.Report().String()
		s.mu.Lock()
		s.lastBundle = bundle
		s.mu.Unlock()
		return http.StatusForbidden, []byte("policy violation\n\n" + bundle)
	}
	if res.Trap != nil {
		s.failures.Inc()
		return http.StatusInternalServerError, []byte(fmt.Sprintf("guest trap: %v\n", res.Trap))
	}
	out := res.World.NetOut
	switch {
	case bytes.HasPrefix(out, []byte("404")):
		return http.StatusNotFound, append([]byte(nil), out...)
	case bytes.HasPrefix(out, []byte("400")):
		return http.StatusBadRequest, append([]byte(nil), out...)
	default:
		return http.StatusOK, append([]byte(nil), out...)
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	status, body := s.serve(requestName(r))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// handler assembles the full mux: guest requests at /, metrics and the
// most recent forensic bundle from the same process.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/forensics", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		bundle := s.lastBundle
		s.mu.Unlock()
		if bundle == "" {
			http.Error(w, "no violations recorded", http.StatusNotFound)
			return
		}
		_, _ = w.Write([]byte(bundle))
	})
	return mux
}
