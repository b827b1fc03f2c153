package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/loader"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/trace"
	"shift/internal/workload"
)

// page is one serve workload's document and its open-loop rate. The
// documents are copies of shiftd's built-in tree: the benchmark checks
// every benign body against them byte for byte.
type page struct {
	file string
	doc  []byte
	rate float64 // phase-A requests per second, fixed (not relative to capacity)
}

var (
	indexPage = page{
		file: "index.html",
		doc:  []byte("<html>shiftd: every byte of this page was served by an instrumented guest</html>\n"),
		rate: 500,
	}
	page4k = page{file: "page4096.html", doc: alphabetPage(4096), rate: 60}
)

func alphabetPage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// docs is the guest document tree for in-process runs, as shiftd has it.
func docs() map[string][]byte {
	return map[string][]byte{
		"/www/htdocs/" + indexPage.file: indexPage.doc,
		"/www/htdocs/" + page4k.file:    page4k.doc,
	}
}

// exploitName is the traversal payload: tainted request bytes whose
// resolved path escapes the document root, which H2 must block.
const exploitName = "../../etc/passwd"

// conns is the client connection (and caller) count: nproc on the
// 2-core host the benchmark was sized on.
const conns = 2

// Request-stream phases, mixed into the exploit-position hash so each
// phase has its own seeded positions.
const (
	phaseWarm = iota + 1
	phaseOpen
	phaseOpenTraced
	phaseClosed
	phaseProbe
)

// exploitAt reports whether request i of a phase is an exploit: 2% of
// positions, fixed by the seed.
func exploitAt(seed int64, phase, i int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(phase)<<40 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%50 == 0
}

// shiftdOptions is cmd/shiftd's buildOptions at its defaults (tagpipe=1,
// not selective): the guest and checker every served request runs.
func shiftdOptions() shift.Options {
	return shift.Options{
		Instrument: true,
		Policy:     workload.HTTPDConfig(),
		Decoupled:  1,
		InstrStats: new(instrument.Stats),
	}
}

func httpdSources() []shift.Source {
	return []shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}
}

// guestWorld is shiftd's per-request world: the shared document tree and
// one 64-byte request record as network input.
func guestWorld(files map[string][]byte, name string) *shift.World {
	w := shift.NewWorld()
	w.Files = files
	rec := make([]byte, workload.HTTPDRequestSize)
	copy(rec, "GET "+name)
	w.NetIn = rec
	return w
}

// checkResponse is the serve integrity rule: a benign request gets 200
// and exactly the document; an exploit gets 403 with a forensic bundle
// naming the violated policy.
func checkResponse(pg page, exploit bool, status int, body []byte) error {
	if exploit {
		if status != http.StatusForbidden || !bytes.Contains(body, []byte("violation")) || !bytes.Contains(body, []byte("H2")) {
			return fmt.Errorf("exploit: status %d body %.120q, want 403 with an H2 violation", status, body)
		}
		return nil
	}
	if status != http.StatusOK || !bytes.Equal(body, pg.doc) {
		return fmt.Errorf("benign %s: status %d body %.120q, want 200 and the %d-byte document", pg.file, status, body, len(pg.doc))
	}
	return nil
}

// loadGen drives HTTP requests at a server and tallies integrity.
type loadGen struct {
	client *http.Client
	base   string
	pg     page
	seed   int64
	spans  *spanLog

	// seq is the next request index of each phase's stream; exploit
	// positions are a function of (seed, phase, index).
	seq [phaseProbe]atomic.Int64

	mu       sync.Mutex
	o        *outcome
	exploits int
}

// take reserves the next n request indices of a phase's stream.
func (g *loadGen) take(phase, n int) int {
	return int(g.seq[phase-1].Add(int64(n))) - n
}

func newLoadGen(base string, pg page, seed int64, o *outcome) *loadGen {
	return &loadGen{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
		base: base,
		pg:   pg,
		seed: seed,
		o:    o,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// do sends request i of a phase and checks the response.
func (g *loadGen) do(phase, i int) bool {
	exploit := exploitAt(g.seed, phase, i)
	url := g.base + "/" + g.pg.file
	if exploit {
		url = g.base + "/?file=" + strings.ReplaceAll(exploitName, "/", "%2F")
	}
	status, body, err := httpGet(g.client, url)
	if err == nil {
		err = checkResponse(g.pg, exploit, status, body)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.o.attempted++
	if exploit {
		g.exploits++
	}
	if err != nil {
		g.o.fail("%v", err)
		return false
	}
	return true
}

func httpGet(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openResult is an open-loop phase: latency from each request's due
// time, how late each was sent, and the send-to-response round trip, in
// milliseconds.
type openResult struct {
	latency, late, rtt []float64
}

// open runs an open loop: request i is due at start + i/rate whether or
// not earlier ones have finished, and `conns` connections send them in
// order. A request that waits for a busy connection is charged its wait.
func (g *loadGen) open(phase int, rate float64, window time.Duration) openResult {
	n := max(1, int(rate*window.Seconds()))
	first := g.take(phase, n)
	period := time.Duration(float64(time.Second) / rate)
	jobs := make(chan int, n) // holds the whole schedule
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	res := openResult{latency: make([]float64, n), late: make([]float64, n), rtt: make([]float64, n)}
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range jobs {
				due := start.Add(time.Duration(j) * period)
				sleepUntil(due)
				sent := time.Now()
				g.do(phase, first+j)
				done := time.Now()
				res.latency[j] = ms(done.Sub(due))
				res.late[j] = ms(sent.Sub(due))
				res.rtt[j] = ms(done.Sub(sent))
				req := int64(first + j)
				root := g.spans.add("request", "", req, lane, 0, due, done)
				g.spans.add("load.wait", "", req, lane, root, due, sent)
				g.spans.add("http.roundtrip", "", req, lane, root, sent, done)
			}
		}(lane)
	}
	wg.Wait()
	return res
}

// closed runs a closed loop: `conns` callers each send their next
// request as soon as the previous one answers. It returns completed
// requests per second and the round trips in milliseconds.
func (g *loadGen) closed(phase int, window time.Duration) (float64, []float64) {
	var mu sync.Mutex
	var rtt []float64
	var last time.Time
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				g.do(phase, g.take(phase, 1))
				done := time.Now()
				mu.Lock()
				rtt = append(rtt, ms(done.Sub(t0)))
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(len(rtt)) / last.Sub(start).Seconds(), rtt
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// overshoots by ~0.5 ms on Linux, as much as a whole small request, and
// the open loop charges that lateness to the server; nanosleep's is
// ~60 µs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// shiftd is a running cmd/shiftd child process.
type shiftd struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	once   sync.Once
	err    error
}

// addrSniffer is shiftd's stdout: it picks the listen address out of
// the "serving on http://ADDR" banner and discards everything else.
type addrSniffer struct {
	buf   []byte
	found chan string
	sent  bool
}

func (a *addrSniffer) Write(p []byte) (int, error) {
	if a.sent {
		return len(p), nil
	}
	a.buf = append(a.buf, p...)
	const marker = "serving on http://"
	if i := bytes.Index(a.buf, []byte(marker)); i >= 0 {
		rest := a.buf[i+len(marker):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			a.found <- string(rest[:j])
			a.sent, a.buf = true, nil
		}
	}
	return len(p), nil
}

// buildShiftd compiles cmd/shiftd into dir with the go tool (a no-op
// when the binary is up to date) and returns its path.
func buildShiftd(dir string) (string, error) {
	abs, err := filepath.Abs(filepath.Join(dir, "shiftd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "shift/cmd/shiftd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building shiftd: %w", err)
	}
	return abs, nil
}

// startShiftd execs shiftd on an ephemeral loopback port at its default
// pool and checker, and returns once it has answered a first 200; the
// duration is exec to that first 200.
func startShiftd(bin string) (*shiftd, time.Duration, error) {
	sniff := &addrSniffer{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = sniff, os.Stderr
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting shiftd: %w", err)
	}
	s := &shiftd{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case addr := <-sniff.found:
		s.base = "http://" + addr
	case err := <-s.exited:
		return nil, 0, fmt.Errorf("shiftd exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		_ = s.stop()
		return nil, 0, errors.New("shiftd printed no listen address within 60s")
	}
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		status, _, err := httpGet(client, s.base+"/index.html")
		if err == nil && status == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > 60*time.Second {
			_ = s.stop()
			return nil, 0, fmt.Errorf("shiftd gave no 200 within 60s: status %d err %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks shiftd to shut down, kills it after 10 s, and waits for it
// to exit. Safe to call more than once.
func (s *shiftd) stop() error {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case s.err = <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			s.err = <-s.exited
		}
	})
	return s.err
}

// scrape reads shiftd's /metrics exposition into name → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	status, body, err := httpGet(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// serveSimSlowdown is the modelled cost of one checked request for the
// page: instrumented guest cycles under shiftd's options over the
// uninstrumented guest's, both serving the same request.
func serveSimSlowdown(pg page) (float64, error) {
	var cycles [2]uint64
	for i, opt := range []shift.Options{{}, shiftdOptions()} {
		res, err := shift.BuildAndRun(httpdSources(), guestWorld(docs(), pg.file), opt)
		if err != nil {
			return 0, err
		}
		if res.Trap != nil || res.Alert != nil || !bytes.Equal(res.World.NetOut, pg.doc) {
			return 0, fmt.Errorf("reference request for %s: trap %v alert %v", pg.file, res.Trap, res.Alert)
		}
		cycles[i] = res.Cycles
	}
	return float64(cycles[1]) / float64(cycles[0]), nil
}

// runServe is the serve-index / serve-page4k workload against a real
// shiftd over loopback: set-up is exec to first 200 (the median of the
// measured server's start and setupPerBlock more after every block),
// then a warm-up and `blocks` alternations of phase A (open loop at the
// page's fixed rate, latency from due time; 60% of the window) and
// phase B (closed loop on `conns` keep-alive connections; 40%). Each
// metric is the median over blocks. Traced, every block adds a traced
// copy of A, the windows halve, and the in-process probe attributes a
// request's time to the layers once shiftd has exited.
func runServe(c *runCtx, pg page) (*outcome, error) {
	o := newOutcome()
	sim, err := serveSimSlowdown(pg)
	if err != nil {
		return nil, err
	}
	o.e2e["sim_slowdown"] = sim

	bin, err := buildShiftd(c.buildDir)
	if err != nil {
		return nil, err
	}
	srv, d, err := startShiftd(bin)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setup := []float64{d.Seconds()}
	// setupOnce times one more exec-to-first-200 of a second shiftd
	// while the measured one idles between blocks.
	setupOnce := func() error {
		s, d, err := startShiftd(bin)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if err := s.stop(); err != nil {
			return fmt.Errorf("shiftd exit: %w", err)
		}
		return nil
	}

	g := newLoadGen(srv.base, pg, c.seed, o)
	defer g.close()
	S := c.window.Seconds()
	sec := func(f float64) time.Duration { return time.Duration(f * S * float64(time.Second)) }
	openWin, closedWin := sec(0.6/blocks), sec(0.4/blocks)
	if c.traced {
		openWin, closedWin = sec(0.3/blocks), sec(0.2/blocks)
	}

	g.closed(phaseWarm, min(time.Second, sec(0.1)))
	before, err := scrape(g.client, srv.base)
	if err != nil {
		return nil, err
	}
	requests0, exploits0 := o.attempted, g.exploits
	var p50, ops, tracedP50, late, lat, rtt []float64
	for b := 0; b < blocks; b++ {
		a := g.open(phaseOpen, pg.rate, openWin)
		p50 = append(p50, quantile(a.latency, 0.5))
		late, lat, rtt = append(late, a.late...), append(lat, a.latency...), append(rtt, a.rtt...)
		if c.traced {
			g.spans = c.spans
			t := g.open(phaseOpenTraced, pg.rate, openWin)
			g.spans = nil
			tracedP50 = append(tracedP50, quantile(t.latency, 0.5))
			rtt = append(rtt, t.rtt...)
		}
		perS, closedRTT := g.closed(phaseClosed, closedWin)
		ops = append(ops, perS)
		rtt = append(rtt, closedRTT...)
		for r := 0; r < setupPerBlock; r++ {
			if err := setupOnce(); err != nil {
				return nil, err
			}
		}
	}
	after, err := scrape(g.client, srv.base)
	if err != nil {
		return nil, err
	}
	requests, exploits := o.attempted-requests0, g.exploits-exploits0
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	g.close()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("shiftd exit: %w", err)
	}
	fmt.Fprintf(c.log, "%d requests (%d exploits); per block: open-loop p50 %.3v ms at %.0f/s, closed loop %.4v req/s\n",
		requests, exploits, p50, pg.rate, ops)

	o.e2e["setup_s"] = median(setup)
	o.e2e["latency_p50_ms"] = median(p50)
	o.e2e["ops_per_s"] = median(ops)
	o.e2e["peak_rss_mb"] = rss

	if c.traced {
		l := o.layer
		d := func(name string) float64 { return after[name] - before[name] }
		l["shiftd.serve_us_mean"] = ratio(d("shiftd_request_ns_sum"), d("shiftd_request_ns_count")) / 1e3
		l["shiftd.transport_us"] = mean(rtt)*1e3 - l["shiftd.serve_us_mean"]
		recycles := d("shift_pool_recycles_total")
		l["pool.restored_pages_per_req"] = ratio(d("shift_pool_restored_pages_total"), recycles)
		l["pool.cleared_tag_pages_per_req"] = ratio(d("shift_pool_cleared_tag_pages_total"), recycles)
		l["load.requests"] = float64(requests)
		l["load.exploits"] = float64(exploits)
		l["load.gen_late_ms_p99"] = quantile(late, 0.99)
		l["load.latency_p90_ms"] = quantile(lat, 0.9)
		l["load.latency_p99_ms"] = quantile(lat, 0.99)
		l["trace.overhead_pct"] = (median(tracedP50) - median(p50)) / median(p50) * 100
		if err := probe(c, pg, o, sec(0.2)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// probe serves requests in process through the same guest, options and
// pool shape as shiftd, one caller, with a span around every layer call
// shiftd's request path makes: trace.New, pool.Acquire, shift.RunOn, the
// forensic report on exploits, the tag clear and pool.Release. Each
// request is then rerun without the checker (tracer only) and bare, so
// differences attribute the run to machine, tracer hook and tag pipeline.
func probe(c *runCtx, pg page, o *outcome, window time.Duration) error {
	l := o.layer
	var plain, instr []float64
	var prog *isa.Program
	opt := shiftdOptions()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if _, err := shift.Build(httpdSources(), shift.Options{}); err != nil {
			return err
		}
		t1 := time.Now()
		p, err := shift.Build(httpdSources(), opt)
		if err != nil {
			return err
		}
		plain = append(plain, ms(t1.Sub(t0)))
		instr = append(instr, ms(time.Since(t1)))
		prog = p
	}
	l["lang.build_ms"] = median(plain)
	l["instrument.build_ms"] = median(instr) - median(plain)
	l["instrument.sites_kept"] = float64(opt.InstrStats.Kept)
	l["instrument.sites_skipped"] = float64(opt.InstrStats.Skipped)

	pr, err := newProbe(prog, opt)
	if err != nil {
		return err
	}
	counts := runCounts{}
	files := docs()
	for i, deadline := 0, time.Now().Add(window); i == 0 || time.Now().Before(deadline); i++ {
		exploit := exploitAt(c.seed, phaseProbe, i)
		name := pg.file
		if exploit {
			name = exploitName
		}
		req := int64(i)
		root := c.spans.add("probe.request", "", req, 0, 0, time.Now(), time.Time{})
		t0 := time.Now()
		tr := trace.New(512)
		t1 := time.Now()
		g := pr.pool.Acquire()
		t2 := time.Now()
		full := opt
		full.Trace = tr
		before := countersOf(g.Machine())
		res, err := pr.run(g, files, name, full)
		t3 := time.Now()
		c.spans.add("trace.alloc", "", req, 0, root, t0, t1)
		c.spans.add("pool.acquire", "", req, 0, root, t1, t2)
		c.spans.add("shift.run", "", req, 0, root, t2, t3)
		o.attempted++
		if err := pr.check(pg, exploit, res, err); err != nil {
			o.fail("probe: %v", err)
		} else {
			if exploit {
				t4 := time.Now()
				_ = res.Report().String()
				c.spans.add("forensics.report", "", req, 0, root, t4, time.Now())
			}
			counts.record("", res, before)
		}
		t5 := time.Now()
		g.Tags().Clear()
		t6 := time.Now()
		pr.pool.Release(g)
		t7 := time.Now()
		c.spans.add("taint.clear", "", req, 0, root, t5, t6)
		c.spans.add("pool.recycle", "", req, 0, root, t6, t7)

		variant := func(span string, opt shift.Options) {
			g := pr.pool.Acquire()
			t0 := time.Now()
			res, err := pr.run(g, files, name, opt)
			c.spans.add(span, "", req, 0, root, t0, time.Now())
			pr.pool.Release(g)
			o.attempted++
			if err := pr.check(pg, exploit, res, err); err != nil {
				o.fail("probe %s: %v", span, err)
			}
		}
		traceOnly := opt
		traceOnly.Decoupled, traceOnly.Trace = 0, trace.New(512)
		variant("run.traced", traceOnly)
		bare := opt
		bare.Decoupled = 0
		variant("machine.run", bare)
		c.spans.end(root, time.Now())
	}

	for _, n := range []string{"trace.alloc", "pool.acquire", "shift.run", "machine.run", "taint.clear", "pool.recycle", "forensics.report"} {
		l[n+"_us"] = c.spans.layerUS(n)
	}
	traced := c.spans.layerUS("run.traced")
	l["trace.hook_us"] = traced - l["machine.run_us"]
	l["tagpipe.check_us"] = l["shift.run_us"] - traced
	l["loader.load_us"] = 0 // pooled guests never reload
	counts.fill(l)
	return nil
}

// serveProbe is an in-process pool over shiftd's guest, run the way
// pool.RunTraced runs it but with each step callable on its own.
type serveProbe struct {
	pool               *pool.Pool
	heapBase, stackTop uint64
}

// newProbe fills a pool of shiftd's default size over prog.
func newProbe(prog *isa.Program, opt shift.Options) (*serveProbe, error) {
	img, err := loader.Load(prog)
	if err != nil {
		return nil, err
	}
	p, err := pool.New(prog, 4, opt)
	if err != nil {
		return nil, err
	}
	return &serveProbe{pool: p, heapBase: img.HeapBase, stackTop: img.StackTop}, nil
}

// run executes one request on an acquired guest, wiring the world as
// pool.Run does. The policy engine is left for RunOn to create: the
// pool's own per-guest engine is not exported, and a fresh one decides
// identically.
func (pr *serveProbe) run(g *pool.Guest, files map[string][]byte, name string, opt shift.Options) (*shift.Result, error) {
	w := guestWorld(files, name)
	w.HeapBase, w.StackTop = pr.heapBase, pr.stackTop
	w.Tags = g.Tags()
	return shift.RunOn(g.Machine(), w, opt)
}

// check is checkResponse for an in-process run: a benign request sends
// exactly the document; an exploit stops at an H2 violation.
func (pr *serveProbe) check(pg page, exploit bool, res *shift.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Trap != nil:
		return fmt.Errorf("trap: %v", res.Trap)
	case exploit && (res.Alert == nil || res.Alert.Violation == nil || res.Alert.Violation.Policy != "H2"):
		return fmt.Errorf("exploit not blocked by H2: alert %v", res.Alert)
	case !exploit && res.Alert != nil:
		return fmt.Errorf("benign request alerted: %v", res.Alert)
	case !exploit && !bytes.Equal(res.World.NetOut, pg.doc):
		return fmt.Errorf("benign NetOut %.120q, want the %d-byte document", res.World.NetOut, len(pg.doc))
	}
	return nil
}
