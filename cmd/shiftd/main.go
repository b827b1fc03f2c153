// Command shiftd is the pooled-guest HTTP front end: a real net/http
// server where every request is executed by an instrumented guest (the
// Figure-6 request server) drawn from a warm pool, with full
// information-flow tracking, H2 policy checks on every open, forensic
// bundles on violation, and Prometheus metrics served from the same
// process.
//
// Modes:
//
//	shiftd                  serve until terminated
//	shiftd -smoke           start, verify benign/404/exploit handling, exit
//	shiftd -sweep           run the load harness and print a throughput table
//
// Flags: -addr, -pool (guests), -tagpipe (check each request with the
// decoupled tag pipeline; on by default, -tagpipe=false keeps tag
// maintenance inline), -selective (instrument only statically
// taint-reachable guest sites; the kept/skipped site counts are exported
// as shift_selective_sites_* gauges), -sweep-requests, -sweep-max
// (highest in-flight level, direct mode).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"shift/internal/instrument"
	"shift/internal/metrics"
	"shift/internal/pool"
	"shift/internal/shift"
	"shift/internal/workload"
)

// buildOptions is the server's run configuration: instrumented guest,
// default H-policies with network+file sources, the decoupled tag
// pipeline as the checker when tagpipe is set, and — when selective is
// set — taint-reachability-pruned instrumentation.
func buildOptions(tagpipe, selective bool) shift.Options {
	opt := shift.Options{
		Instrument: true,
		Policy:     workload.HTTPDConfig(),
		Selective:  selective,
		InstrStats: new(instrument.Stats),
	}
	if tagpipe {
		opt.Decoupled = 1
	}
	return opt
}

// buildPool compiles the guest program and fills the warm pool.
func buildPool(size int, tagpipe, selective bool) (*pool.Pool, error) {
	opt := buildOptions(tagpipe, selective)
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		return nil, fmt.Errorf("building guest: %w", err)
	}
	return pool.New(prog, size, opt)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	poolSize := flag.Int("pool", 4, "warm guests in the pool")
	tagpipe := flag.Bool("tagpipe", true, "check each request with the decoupled tag pipeline (false = inline)")
	smoke := flag.Bool("smoke", false, "run the smoke check against a live server and exit")
	sweep := flag.Bool("sweep", false, "run the load harness and exit")
	sweepRequests := flag.Int("sweep-requests", 2000, "requests per sweep level")
	sweepMax := flag.Int("sweep-max", 10000, "highest in-flight level (direct mode)")
	selective := flag.Bool("selective", false, "instrument only statically taint-reachable guest sites")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "shiftd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *smoke {
		if err := runSmoke(*poolSize, *tagpipe, *selective); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("shiftd: smoke: PASS")
		return
	}
	if *sweep {
		if err := runSweep(os.Stdout, *poolSize, *tagpipe, *sweepRequests, *sweepMax, *selective); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: sweep:", err)
			os.Exit(1)
		}
		return
	}

	opt := buildOptions(*tagpipe, *selective)
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	p, err := pool.New(prog, *poolSize, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	reg := metrics.NewRegistry()
	if *selective {
		shift.RegisterSelectiveMetrics(reg, opt.InstrStats)
	}
	srv := metrics.NewServer(newServer(p, reg).handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	fmt.Printf("shiftd: serving on http://%s (pool=%d tagpipe=%v, metrics at /metrics)\n",
		ln.Addr(), *poolSize, *tagpipe)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Println("shiftd: shutting down")
		_ = srv.Shutdown(context.Background())
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	st := p.Stats()
	fmt.Printf("shiftd: served %d requests (%d recycles, %d pages restored, %d tag pages cleared)\n",
		st.Requests, st.Recycles, st.RestoredPages, st.ClearedPages)
}
