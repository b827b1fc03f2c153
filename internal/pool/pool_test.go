package pool

import (
	"bytes"
	"sync"
	"testing"

	"shift/internal/isa"
	"shift/internal/shift"
	"shift/internal/workload"
)

// buildHTTPD compiles the instrumented Figure-6 request server once per
// test binary.
var buildHTTPD = sync.OnceValues(func() (*isa.Program, error) {
	return shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, httpdOptions())
})

func httpdOptions() shift.Options {
	return shift.Options{Instrument: true, Policy: workload.HTTPDConfig()}
}

// docFiles is the document root every request world carries.
func docFiles() map[string][]byte {
	return map[string][]byte{"/www/htdocs/index.html": []byte("<html>hello</html>")}
}

// requestWorld builds a one-request world: a single 64-byte GET record.
func requestWorld(name string) *shift.World {
	w := shift.NewWorld()
	w.Files = docFiles()
	rec := make([]byte, workload.HTTPDRequestSize)
	copy(rec, "GET "+name)
	w.NetIn = rec
	return w
}

func newHTTPDPool(t *testing.T, size int) *Pool {
	t.Helper()
	prog, err := buildHTTPD()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(prog, size, httpdOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A recycled guest must serve every request exactly as a fresh machine
// would: same bytes out, same cycle count, run after run.
func TestPoolServesRepeatedRequests(t *testing.T) {
	p := newHTTPDPool(t, 1)
	prog, _ := buildHTTPD()

	ref, err := shift.Run(prog, requestWorld("index.html"), httpdOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Alert != nil || ref.Trap != nil {
		t.Fatalf("reference run failed: alert=%v trap=%v", ref.Alert, ref.Trap)
	}
	want := append([]byte(nil), ref.World.NetOut...)
	if !bytes.Contains(want, []byte("hello")) {
		t.Fatalf("reference served %q, want file content", want)
	}

	for i := 0; i < 5; i++ {
		res, err := p.Run(requestWorld("index.html"))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Alert != nil || res.Trap != nil {
			t.Fatalf("run %d: alert=%v trap=%v", i, res.Alert, res.Trap)
		}
		if !bytes.Equal(res.World.NetOut, want) {
			t.Fatalf("run %d: NetOut = %q, want %q", i, res.World.NetOut, want)
		}
		if res.Cycles != ref.Cycles {
			t.Fatalf("run %d: cycles %d, fresh machine %d — reuse is not transparent", i, res.Cycles, ref.Cycles)
		}
	}
	st := p.Stats()
	if st.Requests != 5 || st.Recycles != 5 {
		t.Fatalf("stats = %+v, want 5 requests / 5 recycles", st)
	}
	if st.RestoredPages == 0 {
		t.Fatal("recycles restored no pages; dirty tracking is not wired")
	}
}

// A traversal exploit must be detected on a recycled guest, and the
// guest must come back clean: the next benign request sees no stale
// taint and no stale alert state.
func TestPoolDetectsExploitAndRecovers(t *testing.T) {
	p := newHTTPDPool(t, 1)

	for round := 0; round < 2; round++ {
		benign, err := p.Run(requestWorld("index.html"))
		if err != nil {
			t.Fatal(err)
		}
		if benign.Alert != nil {
			t.Fatalf("round %d: benign request alerted: %v", round, benign.Alert)
		}

		evil, err := p.Run(requestWorld("../../etc/passwd"))
		if err != nil {
			t.Fatal(err)
		}
		if evil.Alert == nil {
			t.Fatalf("round %d: traversal exploit not detected", round)
		}
		if rep := evil.Report(); rep == nil {
			t.Fatalf("round %d: alert carries no forensic report", round)
		}
	}
}

// The policy engine is reused across requests, so recycling must drop
// its alert log: a long-lived server would otherwise keep every
// violation it ever detected. Each exploit's own Result still carries
// its alert.
func TestPoolRecycleDropsAlerts(t *testing.T) {
	p := newHTTPDPool(t, 1)
	for i := 0; i < 3; i++ {
		res, err := p.Run(requestWorld("../../etc/passwd"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Alert == nil || res.Alert.Violation == nil {
			t.Fatalf("request %d: traversal exploit not detected", i)
		}
		g := <-p.free // the released guest, without another recycle
		n := len(g.engine.Alerts)
		p.free <- g
		if n != 0 {
			t.Fatalf("request %d: recycled engine still holds %d alerts", i, n)
		}
	}
}

// Concurrent requests across pool guests must be isolated: every
// response matches the single-guest reference byte for byte.
func TestPoolConcurrentRequestsIsolated(t *testing.T) {
	p := newHTTPDPool(t, 3)
	ref, err := p.Run(requestWorld("index.html"))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), ref.World.NetOut...)

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.Run(requestWorld("index.html"))
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.World.NetOut
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("request %d: NetOut = %q, want %q", i, outs[i], want)
		}
	}
	// The pool runs unhooked, so every guest executed on the block engine
	// through the one translation cache its shared program owns.
	guests := make([]*Guest, 3)
	for i := range guests {
		guests[i] = p.Acquire()
		tc := guests[i].Machine().Translations()
		if tc == nil || tc != guests[0].Machine().Translations() {
			t.Fatalf("guest %d translations = %p, guest 0 has %p", i, tc, guests[0].Machine().Translations())
		}
	}
	for _, g := range guests {
		p.Release(g)
	}
	if st := p.Stats(); st.Busy != 0 {
		t.Fatalf("pool busy = %d after drain, want 0", st.Busy)
	}
}
