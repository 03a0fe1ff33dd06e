package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// LoadOptions configures one load-generation run against a serve instance.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Mode is "dist" or "route".
	Mode string
	// Rate is the target request arrival rate in requests/s.  Positive
	// rates run open loop (requests fire on a fixed schedule regardless of
	// completions, wrk2-style, so latency includes queueing delay under
	// overload); zero or negative runs closed loop at maximum throughput.
	Rate float64
	// Duration is the measured window (default 5s).
	Duration time.Duration
	// Warmup runs closed-loop unmeasured traffic first (default 500ms), so
	// connection setup and lazy caches are off the books.
	Warmup time.Duration
	// Conns is the number of concurrent client workers (default 4).
	Conns int
	// Batch is the pairs per request; 1 uses the GET endpoints, >1 POSTs a
	// batch (default 1).
	Batch int
	// KeyDist picks query endpoints: "uniform" or "zipf" (default uniform).
	KeyDist string
	// ZipfExp is the zipf exponent when KeyDist is "zipf" (default 1.1).
	ZipfExp float64
	// Seed drives all key sampling (default 1).
	Seed uint64
	// Scheme and Draw select the frozen augmentation for route mode
	// (defaults: first packed scheme, draw 0).
	Scheme string
	Draw   int
	// Retries is the per-request retry budget on retryable failures (429,
	// 5xx, timeouts, connection errors), with capped exponential backoff
	// plus jitter between attempts.  Default 0: off — a load generator
	// that silently retries hides exactly the overload behaviour this one
	// exists to measure, so retries are strictly opt-in.
	Retries int
}

// Percentiles are latency quantiles in milliseconds.
type Percentiles struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// LoadResult is the measured outcome of RunLoad, printed by navsim loadgen.
type LoadResult struct {
	Mode       string  `json:"mode"`
	KeyDist    string  `json:"key_dist"`
	Batch      int     `json:"batch"`
	Conns      int     `json:"conns"`
	OpenLoop   bool    `json:"open_loop"`
	TargetRate float64 `json:"target_rate_rps,omitempty"`
	DurationS  float64 `json:"duration_s"`
	Requests   int64   `json:"requests"`
	Queries    int64   `json:"queries"`
	// OK counts requests that ended in a 2xx (after retries, when
	// enabled); Errors = Requests − OK.  The taxonomy below counts
	// *attempts* per failure class, so with retries enabled the class
	// counts can exceed Errors — a request that got a 429 and then
	// succeeded shows up in Shed429 and OK both.
	OK         int64 `json:"ok"`
	Errors     int64 `json:"errors"`
	Shed429    int64 `json:"shed_429"`
	Timeouts   int64 `json:"timeouts"`
	Errors5xx  int64 `json:"errors_5xx"`
	ConnErrors int64 `json:"conn_errors"`
	// Retries counts extra attempts spent; 0 unless LoadOptions.Retries
	// is set.
	Retries       int64       `json:"retries,omitempty"`
	RequestsPerS  float64     `json:"requests_per_sec"`
	QueriesPerS   float64     `json:"queries_per_sec"`
	GoodputPerS   float64     `json:"goodput_per_sec"`
	Latency       Percentiles `json:"latency"`
	ServerFamily  string      `json:"server_family,omitempty"`
	ServerN       int         `json:"server_n,omitempty"`
	ServerOracle  string      `json:"server_oracle,omitempty"`
	ServerPeakRSS int64       `json:"server_peak_rss_bytes,omitempty"`
}

// RunLoad drives the server at BaseURL and reports throughput and latency.
// In open-loop mode latency is measured from each request's *scheduled*
// send time, so coordinated omission is accounted for: a server that
// stalls accrues the stall in every latency sample it delays.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: no base URL")
	}
	if opts.Mode == "" {
		opts.Mode = "dist"
	}
	if opts.Mode != "dist" && opts.Mode != "route" {
		return nil, fmt.Errorf("loadgen: unknown mode %q (dist or route)", opts.Mode)
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Warmup < 0 {
		opts.Warmup = 0
	} else if opts.Warmup == 0 {
		opts.Warmup = 500 * time.Millisecond
	}
	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	if opts.KeyDist == "" {
		opts.KeyDist = "uniform"
	}
	if opts.ZipfExp <= 0 {
		opts.ZipfExp = 1.1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        opts.Conns,
		MaxIdleConnsPerHost: opts.Conns,
	}}
	defer client.CloseIdleConnections()

	// The server tells us the key space; failing here fails fast with a
	// useful error instead of a storm of 400s.
	info, err := fetchStats(ctx, client, opts.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: probing %s: %w", opts.BaseURL, err)
	}
	if info.N < 2 {
		return nil, fmt.Errorf("loadgen: server key space has %d nodes", info.N)
	}

	keys, err := newKeySampler(opts.KeyDist, info.N, opts.ZipfExp)
	if err != nil {
		return nil, err
	}
	workers := make([]*loadWorker, opts.Conns)
	for i := range workers {
		workers[i] = &loadWorker{
			opts:   opts,
			client: client,
			keys:   keys,
			rng:    xrand.New(opts.Seed + uint64(i)*0x9e3779b97f4a7c15),
		}
	}

	if opts.Warmup > 0 {
		warmCtx, cancel := context.WithTimeout(ctx, opts.Warmup)
		var wg sync.WaitGroup
		for _, lw := range workers {
			wg.Add(1)
			go func(lw *loadWorker) {
				defer wg.Done()
				for warmCtx.Err() == nil {
					lw.fire(warmCtx, time.Time{})
				}
			}(lw)
		}
		wg.Wait()
		cancel()
		for _, lw := range workers {
			lw.reset()
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration+30*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(opts.Duration)
	var next atomic.Int64 // open-loop request sequence number
	var wg sync.WaitGroup
	for _, lw := range workers {
		wg.Add(1)
		go func(lw *loadWorker) {
			defer wg.Done()
			if opts.Rate > 0 {
				interval := time.Duration(float64(time.Second) / opts.Rate)
				for {
					seq := next.Add(1) - 1
					scheduled := start.Add(time.Duration(seq) * interval)
					if scheduled.After(deadline) || runCtx.Err() != nil {
						return
					}
					if d := time.Until(scheduled); d > 0 {
						time.Sleep(d)
					}
					lw.fire(runCtx, scheduled)
				}
			}
			for time.Now().Before(deadline) && runCtx.Err() == nil {
				lw.fire(runCtx, time.Time{})
			}
		}(lw)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &LoadResult{
		Mode: opts.Mode, KeyDist: opts.KeyDist, Batch: opts.Batch,
		Conns: opts.Conns, OpenLoop: opts.Rate > 0, TargetRate: opts.Rate,
		DurationS: elapsed,
	}
	var lats []float64
	for _, lw := range workers {
		res.Requests += lw.requests
		res.OK += lw.ok
		res.Shed429 += lw.shed429
		res.Timeouts += lw.timeouts
		res.Errors5xx += lw.errors5xx
		res.ConnErrors += lw.connErrors
		res.Retries += lw.retries
		lats = append(lats, lw.latencies...)
	}
	res.Errors = res.Requests - res.OK
	res.Queries = res.Requests * int64(opts.Batch)
	if elapsed > 0 {
		res.RequestsPerS = float64(res.Requests) / elapsed
		res.QueriesPerS = float64(res.Queries) / elapsed
		res.GoodputPerS = float64(res.OK*int64(opts.Batch)) / elapsed
	}
	// Percentiles cover only requests that ended OK, measured from their
	// scheduled send: failed requests report in the taxonomy, not as
	// (usually fast) latency samples that would flatter the distribution.
	res.Latency = percentiles(lats)

	if after, err := fetchStats(ctx, client, opts.BaseURL); err == nil {
		res.ServerFamily = after.Family
		res.ServerN = after.N
		res.ServerOracle = after.Oracle
		res.ServerPeakRSS = after.PeakRSSBytes
	}
	return res, nil
}

// serverInfo is the slice of /v1/stats the load generator needs.
type serverInfo struct {
	Family       string `json:"family"`
	N            int    `json:"n"`
	Oracle       string `json:"oracle"`
	PeakRSSBytes int64  `json:"peak_rss_bytes"`
}

func fetchStats(ctx context.Context, client *http.Client, base string) (*serverInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats endpoint returned %s", resp.Status)
	}
	var info serverInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// keySampler draws query node ids; safe for concurrent use with per-worker
// RNGs (the alias table is read-only after construction).
type keySampler struct {
	n     int
	alias *sampler.Alias // nil → uniform
}

func newKeySampler(dist string, n int, zipfExp float64) (*keySampler, error) {
	switch dist {
	case "uniform":
		return &keySampler{n: n}, nil
	case "zipf":
		// Zipf over node ids: weight(i) ∝ 1/(i+1)^s.  This is the classic
		// skewed-popularity model for cache-unfriendly serving benchmarks.
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Pow(float64(i+1), -zipfExp)
		}
		a, err := sampler.NewAlias(w)
		if err != nil {
			return nil, fmt.Errorf("loadgen: building zipf sampler: %w", err)
		}
		return &keySampler{n: n, alias: &a}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown key distribution %q (uniform or zipf)", dist)
	}
}

func (k *keySampler) draw(rng *xrand.RNG) int32 {
	if k.alias == nil {
		return int32(rng.Intn(k.n))
	}
	return k.alias.Draw(rng)
}

// attemptClass is the error taxonomy: every attempt lands in exactly one
// class, and the per-class counters separate "the server shed me" (429)
// from "the server timed out / was unready" (503, transport timeout) from
// "the server broke" (other 5xx) from "I never reached it" (connection
// errors).  Conflating these is how overload incidents get misdiagnosed.
type attemptClass int

const (
	attemptOK      attemptClass = iota
	attemptShed                 // HTTP 429: load shed, retryable
	attemptTimeout              // HTTP 503 or transport timeout, retryable
	attempt5xx                  // other 5xx, retryable
	attemptConn                 // transport/connection error, retryable
	attemptFatal                // 4xx etc.: retrying cannot help
)

// loadWorker is one client connection's state; owned by one goroutine.
type loadWorker struct {
	opts       LoadOptions
	client     *http.Client
	keys       *keySampler
	rng        *xrand.RNG
	body       bytes.Buffer
	requests   int64
	ok         int64
	shed429    int64
	timeouts   int64
	errors5xx  int64
	connErrors int64
	retries    int64
	latencies  []float64 // milliseconds, successful requests only
}

func (lw *loadWorker) reset() {
	lw.requests, lw.ok = 0, 0
	lw.shed429, lw.timeouts, lw.errors5xx, lw.connErrors, lw.retries = 0, 0, 0, 0, 0
	lw.latencies = lw.latencies[:0]
}

// fire sends one logical request (with retries when enabled).  A non-zero
// scheduled time is the open-loop arrival slot latency is measured from;
// otherwise (closed loop, warmup) latency starts at the actual send.
// Success-after-retry latency includes the backoff — that is the latency
// the caller experienced.
func (lw *loadWorker) fire(ctx context.Context, scheduled time.Time) {
	sent := time.Now()
	if scheduled.IsZero() {
		scheduled = sent
	}
	ok := lw.doRequest(ctx)
	if ctx.Err() != nil && !ok {
		return // cancellation mid-request is shutdown, not a server error
	}
	lw.requests++
	if ok {
		lw.ok++
		lw.latencies = append(lw.latencies, float64(time.Since(scheduled))/float64(time.Millisecond))
	}
}

// doRequest runs the attempt/backoff loop for one logical request: the
// same keys are resent on every attempt (a real client retries its
// request, not a fresh one), each failed attempt is counted in its class,
// and backoff is exponential from 10ms, capped at 500ms, with up to 25%
// jitter to keep retry storms from re-synchronising.
func (lw *loadWorker) doRequest(ctx context.Context) bool {
	method, url, payload := lw.buildRequest()
	for attempt := 0; ; attempt++ {
		c := lw.attempt(ctx, method, url, payload)
		switch c {
		case attemptOK:
			return true
		case attemptShed:
			lw.shed429++
		case attemptTimeout:
			lw.timeouts++
		case attempt5xx:
			lw.errors5xx++
		case attemptConn:
			lw.connErrors++
		case attemptFatal:
			return false
		}
		if attempt >= lw.opts.Retries {
			return false
		}
		back := 10 * time.Millisecond << attempt
		if back > 500*time.Millisecond {
			back = 500 * time.Millisecond
		}
		back += time.Duration(lw.rng.Intn(int(back)/4 + 1))
		lw.retries++
		select {
		case <-ctx.Done():
			return false
		case <-time.After(back):
		}
	}
}

// buildRequest draws the keys and renders the URL (batch 1) or JSON body
// (batch >1) once per logical request, so retries resend identical work.
func (lw *loadWorker) buildRequest() (method, url string, payload []byte) {
	n := int32(lw.keys.n)
	pair := func() (int32, int32) {
		u := lw.keys.draw(lw.rng)
		v := lw.keys.draw(lw.rng)
		if u == v {
			v = (v + 1) % n
		}
		return u, v
	}
	if lw.opts.Batch == 1 {
		u, v := pair()
		if lw.opts.Mode == "dist" {
			url = lw.opts.BaseURL + "/v1/dist?u=" + strconv.Itoa(int(u)) + "&v=" + strconv.Itoa(int(v))
		} else {
			url = lw.opts.BaseURL + "/v1/route?s=" + strconv.Itoa(int(u)) + "&t=" + strconv.Itoa(int(v))
			if lw.opts.Scheme != "" {
				url += "&scheme=" + lw.opts.Scheme
			}
			if lw.opts.Draw > 0 {
				url += "&draw=" + strconv.Itoa(lw.opts.Draw)
			}
		}
		return http.MethodGet, url, nil
	}
	lw.body.Reset()
	lw.body.WriteString(`{"pairs":[`)
	for i := 0; i < lw.opts.Batch; i++ {
		if i > 0 {
			lw.body.WriteByte(',')
		}
		u, v := pair()
		lw.body.WriteByte('[')
		lw.body.WriteString(strconv.Itoa(int(u)))
		lw.body.WriteByte(',')
		lw.body.WriteString(strconv.Itoa(int(v)))
		lw.body.WriteByte(']')
	}
	lw.body.WriteByte(']')
	if lw.opts.Mode == "route" && lw.opts.Scheme != "" {
		lw.body.WriteString(`,"scheme":"` + lw.opts.Scheme + `","draw":` + strconv.Itoa(lw.opts.Draw))
	}
	lw.body.WriteByte('}')
	return http.MethodPost, lw.opts.BaseURL + "/v1/" + lw.opts.Mode, lw.body.Bytes()
}

// attempt sends once and classifies the outcome.
func (lw *loadWorker) attempt(ctx context.Context, method, url string, payload []byte) attemptClass {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return attemptFatal
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := lw.client.Do(req)
	if err != nil {
		var t interface{ Timeout() bool }
		if errors.As(err, &t) && t.Timeout() {
			return attemptTimeout
		}
		return attemptConn
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if copyErr != nil {
		return attemptConn
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return attemptOK
	case resp.StatusCode == http.StatusTooManyRequests:
		return attemptShed
	case resp.StatusCode == http.StatusServiceUnavailable:
		return attemptTimeout
	case resp.StatusCode >= 500:
		return attempt5xx
	default:
		return attemptFatal
	}
}

// percentiles summarises latencies (ms).
func percentiles(lats []float64) Percentiles {
	if len(lats) == 0 {
		return Percentiles{}
	}
	sort.Float64s(lats)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	return Percentiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  lats[len(lats)-1],
		Mean: sum / float64(len(lats)),
	}
}
