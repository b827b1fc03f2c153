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

// config is shiftd's command line: the guests' run options plus the
// server's own settings.
type config struct {
	opt           shift.Options
	addr          string
	poolSize      int
	smoke, sweep  bool
	sweepRequests int
	sweepMax      int
}

// parseFlags parses shiftd's command line on fs. The guests' run options
// start as the server's configuration: instrumented guest, default
// H-policies with network+file sources, and the decoupled tag pipeline
// as the checker (-tagpipe defaults to true); -selective prunes the
// instrumentation to taint-reachable sites.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{opt: shift.Options{
		Instrument: true,
		Policy:     workload.HTTPDConfig(),
		Decoupled:  1,
		InstrStats: new(instrument.Stats),
	}}
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&c.poolSize, "pool", 4, "warm guests in the pool")
	shift.BindFlags(fs, &c.opt, "tagpipe", "selective")
	fs.BoolVar(&c.smoke, "smoke", false, "run the smoke check against a live server and exit")
	fs.BoolVar(&c.sweep, "sweep", false, "run the load harness and exit")
	fs.IntVar(&c.sweepRequests, "sweep-requests", 2000, "requests per sweep level")
	fs.IntVar(&c.sweepMax, "sweep-max", 10000, "highest in-flight level (direct mode)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return c, nil
}

// buildPool compiles the guest program and fills the warm pool.
func buildPool(size int, opt shift.Options) (*pool.Pool, error) {
	prog, err := shift.Build([]shift.Source{{Name: "httpd.mc", Text: workload.HTTPDSource}}, opt)
	if err != nil {
		return nil, fmt.Errorf("building guest: %w", err)
	}
	return pool.New(prog, size, opt)
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(2)
	}
	opt := c.opt

	if c.smoke {
		if err := runSmoke(c.poolSize, opt); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("shiftd: smoke: PASS")
		return
	}
	if c.sweep {
		if err := runSweep(os.Stdout, c.poolSize, opt, c.sweepRequests, c.sweepMax); err != nil {
			fmt.Fprintln(os.Stderr, "shiftd: sweep:", err)
			os.Exit(1)
		}
		return
	}

	p, err := buildPool(c.poolSize, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	reg := metrics.NewRegistry()
	if opt.Selective {
		shift.RegisterSelectiveMetrics(reg, opt.InstrStats)
	}
	srv := metrics.NewServer(newServer(p, reg).handler())

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftd:", err)
		os.Exit(1)
	}
	fmt.Printf("shiftd: serving on http://%s (pool=%d tagpipe=%v, metrics at /metrics)\n",
		ln.Addr(), c.poolSize, opt.Decoupled != 0)

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
