package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// conns is the number of client connections: one per core of the 2-core
// machine the benchmark was sized on, and never more, so that the server's
// bounded queue cannot overflow and every request is answered exactly.
const conns = 2

// spinWindow is how long before a request's due time the dispatcher stops
// sleeping and starts polling the clock.  time.Sleep overshoots short
// sleeps by about a millisecond, which would dominate a sub-millisecond
// latency, so the dispatcher sleeps in nanosleep(2) on a thread of its own
// whose timer slack is 1 ns: on the 2-vCPU host the benchmark was sized on,
// such a sleep overshot by 5 µs at the median and 9 µs at p99, against 56
// µs with the default slack.  The sleep is a raw system call, so the
// dispatcher keeps its Go processor while it sleeps: a sleep that gave it
// up had to wait on waking for a query to release one, for up to the
// runtime's 10 ms preemption interval.  The dispatcher polls without
// yielding for the same reason, so the window is kept short.
const spinWindow = 25 * time.Microsecond

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// spanHeader carries the client span id to the server-side handler span.
const spanHeader = "X-Bench-Span"

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// request is one prepared HTTP request; body nil means GET.
type request struct {
	url  string
	body []byte
}

// fetch sends rq under a client span and returns the body of a 200 answer
// (when keep is set) and the span id.  Any other status, or a transport
// error, is an error.  Traced requests carry the span id to the server.
func fetch(c *http.Client, tr *tracer, parent int64, rq request, keep bool) ([]byte, int64, error) {
	tm := tr.begin("http.request", parent)
	tm.req = tm.id
	defer tm.end()
	method, body := http.MethodGet, io.Reader(nil)
	if rq.body != nil {
		method, body = http.MethodPost, bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(method, rq.url, body)
	if err != nil {
		return nil, tm.id, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tm.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(tm.id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, tm.id, err
	}
	defer resp.Body.Close()
	var out []byte
	if keep || resp.StatusCode != http.StatusOK {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, rq.url, resp.StatusCode, bytes.TrimSpace(out))
	}
	if err != nil {
		return nil, tm.id, err
	}
	return out, tm.id, nil
}

// sample is one open-loop request, timed from its due time.
type sample struct {
	due     time.Duration // since the phase started
	late    time.Duration // dispatch time minus due time
	latency time.Duration // response time minus due time
	span    int64         // client span id (traced runs)
	ok      bool
}

// openLoop sends reqs at a fixed rate whatever the server does, so a stall
// delays every later request and shows in its latency.  One dispatcher
// goroutine waits for each due time and hands the request to one of the
// connection workers; a request waits for a free connection inside its
// latency.
func openLoop(c *http.Client, tr *tracer, parent int64, reqs []request, rate float64) []sample {
	out := make([]sample, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on busy
	// connections and its lateness measures only its own timer.
	jobs := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				_, id, err := fetch(c, tr, parent, reqs[i], false)
				out[i].latency = time.Since(start) - out[i].due
				out[i].span = id
				out[i].ok = err == nil
			}
		}()
	}
	// The dispatcher never unlocks its thread, so the thread, with its
	// timer slack, ends with the goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		runtime.LockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // on failure the sleeps overshoot more and lateness shows it
		for i := range reqs {
			due := time.Duration(float64(i) * float64(time.Second) / rate)
			waitUntil(start.Add(due))
			out[i].due = due
			out[i].late = time.Since(start) - due
			jobs <- i
		}
	}()
	wg.Wait()
	return out
}

// waitUntil sleeps until shortly before t, then polls the clock until t
// has passed.  The calling goroutine must be locked to its thread, and the
// thread's timer slack set to 1 ns.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep ends early; the loop below waits out the rest.
		syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
	for time.Now().Before(t) {
	}
}

// sequential sends one request at a time for dur, each as soon as the
// previous one is answered, so no request waits behind another.  It
// returns the latency of each answered request in ms, and the number of
// requests sent and of those that failed.
func sequential(c *http.Client, tr *tracer, parent int64, dur time.Duration, next func() request) (lat []float64, sent, failed int64) {
	for stop := time.Now().Add(dur); time.Now().Before(stop); sent++ {
		t := time.Now()
		if _, _, err := fetch(c, tr, parent, next(), false); err != nil {
			failed++
			continue
		}
		lat = append(lat, float64(time.Since(t))/1e6)
	}
	return lat, sent, failed
}

// closedLoop keeps every connection busy for dur: each sends its next
// request as soon as the previous one is answered.  It returns once every
// connection's last request is answered, with the number of requests sent
// and of those that failed.
func closedLoop(c *http.Client, tr *tracer, parent int64, dur time.Duration, next func(conn int) request) (sent, failed int64) {
	stop := time.Now().Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var all, bad int64
			for time.Now().Before(stop) {
				_, _, err := fetch(c, tr, parent, next(conn), false)
				all++
				if err != nil {
					bad++
				}
			}
			mu.Lock()
			sent, failed = sent+all, failed+bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sent, failed
}
