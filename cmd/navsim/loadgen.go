package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"navaug/internal/serve"
)

func runLoadgen(c *command, args []string) error {
	fs := newFlagSet(c)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the navsim serve instance")
	mode := fs.String("mode", "dist", "query mix: dist or route")
	rate := fs.Float64("rate", 0, "target request rate in req/s (open loop, wrk2-style); 0 = closed loop at max throughput")
	duration := fs.Duration("duration", 5*time.Second, "measured window")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unmeasured warmup traffic before the window")
	conns := fs.Int("conns", 4, "concurrent client connections")
	batch := fs.Int("batch", 1, "pairs per request (1 = GET endpoints, >1 = POST batches)")
	keys := fs.String("keys", "uniform", "query key distribution: uniform or zipf")
	zipfExp := fs.Float64("zipf", 1.1, "zipf exponent when -keys zipf")
	seed := fs.Uint64("seed", 1, "sampling seed")
	scheme := fs.String("scheme", "", "frozen scheme for route mode (default: first packed)")
	draw := fs.Int("draw", 0, "frozen draw index for route mode")
	retries := fs.Int("retries", 0, "retry budget per request for 429/timeout/5xx/conn errors (0 = no retries; capped exponential backoff with jitter)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	res, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		BaseURL:  *url,
		Mode:     *mode,
		Rate:     *rate,
		Duration: *duration,
		Warmup:   *warmup,
		Conns:    *conns,
		Batch:    *batch,
		KeyDist:  *keys,
		ZipfExp:  *zipfExp,
		Seed:     *seed,
		Scheme:   *scheme,
		Draw:     *draw,
		Retries:  *retries,
	})
	if err != nil {
		return err
	}

	loop := "closed loop"
	if res.OpenLoop {
		loop = fmt.Sprintf("open loop @ %.0f req/s", res.TargetRate)
	}
	fmt.Fprintf(os.Stderr, "target:      %s (%s, n=%d, oracle %s)\n", *url, res.ServerFamily, res.ServerN, res.ServerOracle)
	fmt.Fprintf(os.Stderr, "workload:    %s, %s keys, batch %d, %d conns, %s, %.1fs\n",
		res.Mode, res.KeyDist, res.Batch, res.Conns, loop, res.DurationS)
	fmt.Fprintf(os.Stderr, "throughput:  %.0f req/s = %.0f %s-queries/s (%d requests, %d ok, %d errors)\n",
		res.RequestsPerS, res.QueriesPerS, res.Mode, res.Requests, res.OK, res.Errors)
	fmt.Fprintf(os.Stderr, "goodput:     %.0f ok-queries/s\n", res.GoodputPerS)
	if res.Errors > 0 || res.Retries > 0 {
		fmt.Fprintf(os.Stderr, "errors:      %d shed (429), %d timeouts, %d 5xx, %d conn; %d retries\n",
			res.Shed429, res.Timeouts, res.Errors5xx, res.ConnErrors, res.Retries)
	}
	fmt.Fprintf(os.Stderr, "latency ms:  p50 %.3f  p90 %.3f  p99 %.3f  p99.9 %.3f  max %.3f  mean %.3f  (over ok responses only)\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max, res.Latency.Mean)
	if res.ServerPeakRSS > 0 {
		fmt.Fprintf(os.Stderr, "server rss:  %.1f MB peak\n", float64(res.ServerPeakRSS)/1e6)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
