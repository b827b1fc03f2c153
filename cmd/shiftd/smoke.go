package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"shift/internal/metrics"
	"shift/internal/shift"
)

// exploitName is the traversal payload the smoke check injects: a
// tainted request whose resolved path escapes the document root, which
// H2 must catch on the guest's open().
const exploitName = "../../etc/passwd"

// httpGet fetches a URL and returns status plus body.
func httpGet(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runSmoke starts a live server on an ephemeral port, drives a short
// benign burst plus one exploit request over real HTTP, and verifies:
// benign content served byte-exact, 404 classification, exploit
// detected with a forensic bundle (both in the 403 body and at
// /forensics), metrics exposed, and a clean shutdown.
func runSmoke(poolSize int, opt shift.Options) error {
	p, err := buildPool(poolSize, opt)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	s := newServer(p, reg)
	srv := metrics.NewServer(s.handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	wantIndex := string(docRoot()["/www/htdocs/index.html"])

	// Benign burst: 24 requests over 8 connections, every body
	// byte-exact — a recycled guest serving anything stale fails here.
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				status, body, err := httpGet(client, base+"/index.html")
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK || string(body) != wantIndex {
					errs <- fmt.Errorf("benign request: status %d body %q", status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	if status, body, err := httpGet(client, base+"/no-such-page.html"); err != nil {
		return err
	} else if status != http.StatusNotFound {
		return fmt.Errorf("missing page: status %d body %q, want 404", status, body)
	}

	status, body, err := httpGet(client, base+"/?file="+strings.ReplaceAll(exploitName, "/", "%2F"))
	if err != nil {
		return err
	}
	if status != http.StatusForbidden {
		return fmt.Errorf("exploit request: status %d, want 403", status)
	}
	for _, want := range []string{"violation", "H2", "provenance"} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("forensic bundle missing %q:\n%s", want, body)
		}
	}
	if status, fb, err := httpGet(client, base+"/forensics"); err != nil || status != http.StatusOK || !strings.Contains(string(fb), "violation") {
		return fmt.Errorf("/forensics: status %d err %v", status, err)
	}
	if status, mb, err := httpGet(client, base+"/metrics"); err != nil || status != http.StatusOK {
		return fmt.Errorf("/metrics: status %d err %v", status, err)
	} else {
		for _, want := range []string{"shift_pool_size", "shiftd_requests_total", "shiftd_alerts_total 1"} {
			if !strings.Contains(string(mb), want) {
				return fmt.Errorf("metrics exposition missing %q", want)
			}
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		return fmt.Errorf("serve loop ended with %v, want ErrServerClosed", err)
	}
	st := p.Stats()
	if st.Busy != 0 {
		return fmt.Errorf("pool busy=%d after shutdown", st.Busy)
	}
	fmt.Printf("shiftd: smoke: %d requests, 1 exploit detected with bundle, clean shutdown\n", st.Requests)
	return nil
}
