package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment matrix is embarrassingly parallel: every cell — one
// workload under one configuration — builds its own program, world and
// machine, and the simulator shares no mutable package state. The
// harness therefore fans cells out over a bounded worker pool and
// assembles results strictly by cell index afterwards, so the printed
// tables, geomeans and divergence checks are byte-identical to a serial
// run (the determinism golden test pins this).

// workers resolves the effective pool size for n cells.
func (h Harness) workers(n int) int {
	w := h.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(0..n-1) on a bounded pool and waits for all of
// them. Every index runs even if another fails; the lowest-index error
// is returned so the winning error does not depend on scheduling.
func (h Harness) parallelFor(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if w := h.workers(n); w > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range errs {
			errs[i] = fn(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
