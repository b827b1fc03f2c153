package pool

import (
	"testing"

	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/taint"
	"shift/internal/trace"
)

// echoSource reads one record from the network and one from stdin; each
// request exercises whichever input its world actually supplies, so the
// taint-birth events in its trace name exactly the channels that fed it.
const echoSource = `
char net[32];
char in[32];

void main() {
	recv(net, 32);
	read(0, in, 32);
	exit(0);
}
`

// Two requests on ONE recycled guest, each with its own flight
// recorder: taint-birth attribution must stay per-request. Request 1 is
// fed by the network, request 2 by stdin — the second trace must not
// contain network-born taint (label bleed), and the recycled tag space
// must carry no birth-channel bookkeeping from request 1.
func TestPoolTwoRequestTaintAttribution(t *testing.T) {
	conf := policy.DefaultConfig()
	conf.Sources = map[string]bool{"network": true, "stdin": true}
	opt := shift.Options{Instrument: true, Policy: conf}
	prog, err := shift.Build([]shift.Source{{Name: "echo.mc", Text: echoSource}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(prog, 1, opt)
	if err != nil {
		t.Fatal(err)
	}

	births := func(tr *trace.Tracer) map[string]int {
		out := map[string]int{}
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindTaint {
				out[ev.Name]++
			}
		}
		return out
	}

	w1 := shift.NewWorld()
	w1.NetIn = []byte("request one payload")
	tr1 := trace.New(4096)
	if res, err := p.RunTraced(w1, tr1); err != nil || res.Trap != nil || res.Alert != nil {
		t.Fatalf("request 1: err=%v res=%+v", err, res)
	}
	b1 := births(tr1)
	if b1["network"] == 0 {
		t.Fatalf("request 1 births = %v, want network taint", b1)
	}
	if b1["stdin"] != 0 || b1["file"] != 0 {
		t.Fatalf("request 1 births = %v: stdin/file taint with no such input", b1)
	}

	w2 := shift.NewWorld()
	w2.Stdin = []byte("request two payload")
	tr2 := trace.New(4096)
	if res, err := p.RunTraced(w2, tr2); err != nil || res.Trap != nil || res.Alert != nil {
		t.Fatalf("request 2: err=%v res=%+v", err, res)
	}
	b2 := births(tr2)
	if b2["stdin"] == 0 {
		t.Fatalf("request 2 births = %v, want stdin taint", b2)
	}
	if b2["network"] != 0 {
		t.Fatalf("request 2 births = %v: network label bled from request 1", b2)
	}
	// Request 1's events must not have leaked into request 2's recorder
	// (one hook per run; a stale hook on the recycled machine would
	// double-feed).
	for _, ev := range tr2.Events() {
		if ev.Kind == trace.KindTaint && ev.Name == "network" {
			t.Fatalf("request 1 event in request 2 trace: %+v", ev)
		}
	}

	// The recycled guest's tag space must be channel-clean: no live
	// union, and no recorded origin for request 1's network bytes
	// surviving the tag clear (ChannelAt falls back to the empty union).
	g := p.Acquire()
	defer p.Release(g)
	if live := g.Tags().Live(); live != 0 {
		t.Fatalf("recycled guest live channels = %v, want none", live)
	}
	var netBirth *trace.Event
	for i, ev := range tr1.Events() {
		if ev.Kind == trace.KindTaint && ev.Name == "network" {
			netBirth = &tr1.Events()[i]
			break
		}
	}
	for a := netBirth.Addr; a < netBirth.Addr+netBirth.N; a++ {
		if ch := g.Tags().ChannelAt(a); ch != 0 {
			t.Fatalf("recycled guest ChannelAt(%#x) = %v: request 1's network origin survived the clear", a, ch)
		}
	}
}

// A single syscall tainting a multi-unit buffer must attribute its
// birth channel to every unit it touched, at both granularities — not
// just the first unit of the range. The taint-birth trace event names
// the range; the tag space must answer the same channel for all of it.
func TestMultiUnitBirthAttribution(t *testing.T) {
	for _, gran := range []taint.Granularity{taint.Byte, taint.Word} {
		conf := policy.DefaultConfig()
		conf.Granularity = gran
		conf.Sources = map[string]bool{"network": true}
		opt := shift.Options{Instrument: true, Policy: conf}
		prog, err := shift.Build([]shift.Source{{Name: "echo.mc", Text: echoSource}}, opt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(prog, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Acquire()
		w := shift.NewWorld()
		w.NetIn = []byte("0123456789abcdef0123456789abcdef")
		w.Tags, w.Engine = g.tags, g.engine
		w.HeapBase, w.StackTop = p.heapBase, p.stackTop
		tr := trace.New(4096)
		runOpt := opt
		runOpt.Trace = tr
		res, err := shift.RunOn(g.mach, w, runOpt)
		if err != nil || res.Trap != nil || res.Alert != nil {
			t.Fatalf("gran %v: err=%v res=%+v", gran, err, res)
		}
		var birth *trace.Event
		for i, ev := range tr.Events() {
			if ev.Kind == trace.KindTaint && ev.Name == "network" {
				birth = &tr.Events()[i]
				break
			}
		}
		if birth == nil {
			t.Fatalf("gran %v: no network taint-birth event", gran)
		}
		if birth.N != 32 {
			t.Fatalf("gran %v: birth event covers %d bytes, want the full 32-byte record", gran, birth.N)
		}
		cb, err := g.tags.ChannelBytes(birth.Addr, int(birth.N))
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range cb {
			if ch&taint.ChanNetwork == 0 {
				t.Fatalf("gran %v: byte %d of the received record lost its network birth (%v)", gran, i, ch)
			}
		}
		p.Release(g)
	}
}
