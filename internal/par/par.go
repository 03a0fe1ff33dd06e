// Package par runs a pass over index ranges on several goroutines; a
// validation pass reports exactly what the serial pass reports.
package par

import (
	"sync"
	"sync/atomic"
)

// Ranges splits [0, n) into consecutive ranges of chunk items and calls
// check on each, on up to workers goroutines of its own while the caller
// waits; w, in [0, workers), names the goroutine, for per-worker
// tallies.  It returns the error of the lowest range whose check failed,
// or nil.  So when check reports the first failing item of its range,
// Ranges reports the first failing item of [0, n), as one serial pass
// over it would.
//
// Ranges are claimed in increasing order, and no range above a failed one
// is started, so a failure near the front stops the pass early.  With
// workers <= 1 or n <= chunk, check runs once, over all of [0, n), on the
// caller's goroutine.  The caller takes no range itself otherwise: the
// 2-hop build, which fans out several hundred times a build, ran 1-3%
// slower that way on a 2-vCPU host.
func Ranges(n, chunk, workers int, check func(w, lo, hi int) error) error {
	if workers <= 1 || n <= chunk {
		return check(0, 0, n)
	}
	workers = min(workers, (n+chunk-1)/chunk)
	var (
		next   atomic.Int64 // start of the next unclaimed range
		failed atomic.Int64 // start of the lowest failed range so far
		mu     sync.Mutex
		first  error // the error of that range
		wg     sync.WaitGroup
	)
	failed.Store(int64(n))
	run := func(w int) {
		for {
			lo := next.Add(int64(chunk)) - int64(chunk)
			if lo >= failed.Load() {
				return
			}
			if err := check(w, int(lo), min(int(lo)+chunk, n)); err != nil {
				mu.Lock()
				if lo < failed.Load() {
					failed.Store(lo)
					first = err
				}
				mu.Unlock()
				return
			}
		}
	}
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	wg.Wait()
	return first
}
