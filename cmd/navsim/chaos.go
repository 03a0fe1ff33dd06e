package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"navaug/internal/fault"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
)

// chaosRecord is the record a chaos run writes to stdout as one JSON
// object: the degraded-mode throughput measurement plus the recovery
// verdict.
type chaosRecord struct {
	Snapshot    string   `json:"snapshot"`
	Faults      string   `json:"faults"`
	Corrupt     string   `json:"corrupt,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Mode        string   `json:"mode"`
	Conns       int      `json:"conns"`
	DurationS   float64  `json:"duration_s"`

	Load serve.LoadResult `json:"load"`

	Panics    int64 `json:"panics"`
	Shed      int64 `json:"shed"`
	Approx    int64 `json:"approx_answers"`
	Recovered bool  `json:"recovered"`
}

// runChaos spins up an in-process server over the snapshot, injects the
// fault schedule, measures degraded-mode throughput with the loadgen
// client, then verifies recovery: after the faults clear, a fixed probe
// set must answer byte-identically to its pre-fault baseline.
func runChaos(c *command, args []string) error {
	fs := newFlagSet(c)
	snapPath := fs.String("snapshot", "", "path to the .navsnap file to torture (required)")
	faults := fs.String("faults", "stall:shard=0,delay=50ms,dur=3s;storm:p=0.1,delay=3s,dur=3s",
		"fault-injection spec active during the measured window")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the fault-injection draw stream")
	corrupt := fs.String("corrupt", "", "additionally corrupt this snapshot section before the tolerant load (metric, twohop or scheme)")
	mode := fs.String("mode", "route", "loadgen query mix: dist or route")
	duration := fs.Duration("duration", 5*time.Second, "measured chaos window")
	conns := fs.Int("conns", 16, "concurrent loadgen connections")
	retries := fs.Int("retries", 0, "loadgen retry budget per request")
	workers := fs.Int("workers", 2, "server query pool size")
	queue := fs.Int("queue", 4, "server task queue bound")
	timeout := fs.Duration("timeout", 500*time.Millisecond, "server per-request timeout")
	landmarks := fs.Int("landmarks", 0, "landmark count for the approximate tier beneath the field cache, built only when the snapshot has no exact O(1) tier (0 = default 16)")
	seed := fs.Uint64("seed", 1, "loadgen sampling seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *snapPath == "" {
		fs.Usage()
		return fmt.Errorf("chaos requires -snapshot")
	}
	inj, err := fault.Parse(*faults, *faultSeed)
	if err != nil {
		return err
	}

	b, err := os.ReadFile(*snapPath)
	if err != nil {
		return err
	}
	if *corrupt != "" {
		if err := snapshot.CorruptSection(b, *corrupt); err != nil {
			return err
		}
	}
	snap, err := snapshot.ReadBytesTolerant(b)
	if err != nil {
		return err
	}
	if len(snap.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "navsim chaos: quarantined sections %v\n", snap.Quarantined)
	}
	srv, err := serve.New(snap, serve.Options{
		Workers: *workers, QueueDepth: *queue, RequestTimeout: *timeout,
		Landmarks: *landmarks, Faults: inj,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	probes := chaosProbeSet(base, snap)
	baseline, err := chaosProbe(probes)
	if err != nil {
		return fmt.Errorf("pre-fault baseline: %w", err)
	}

	fmt.Fprintf(os.Stderr, "navsim chaos: faults ACTIVE: %s\n", *faults)
	inj.Activate()
	res, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		BaseURL: base, Mode: *mode, Duration: *duration,
		Warmup: 0, Conns: *conns, Seed: *seed, Retries: *retries,
	})
	if err != nil {
		return err
	}
	inj.Deactivate()

	// Recovery: poll until every breaker has closed and the ladder is
	// back on its exact rung, then the probe set must be byte-identical
	// to the baseline.  Quarantined-at-load sections keep the server
	// degraded forever; recovery then only means stable answers.
	recovered := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		chaosProbe(probes) // feed the pool so half-open breakers get probe tasks
		st := chaosStats(base)
		if st.BreakersOpen == 0 && (!st.Degraded || len(snap.Quarantined) > 0) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	after, err := chaosProbe(probes)
	if err == nil && len(snap.Quarantined) == 0 {
		recovered = true
		for i := range baseline {
			if string(after[i]) != string(baseline[i]) {
				recovered = false
				fmt.Fprintf(os.Stderr, "navsim chaos: probe %d diverged after faults cleared:\n  before: %s\n  after:  %s\n",
					i, baseline[i], after[i])
			}
		}
	}

	st := chaosStats(base)
	rec := chaosRecord{
		Snapshot: *snapPath, Faults: *faults, Corrupt: *corrupt,
		Quarantined: snap.Quarantined,
		Mode:        *mode, Conns: *conns, DurationS: duration.Seconds(),
		Load:   *res,
		Panics: st.Panics, Shed: st.Shed, Approx: st.ApproxAnswers,
		Recovered: recovered,
	}
	fmt.Fprintf(os.Stderr, "chaos window: %s under %q\n", *duration, *faults)
	fmt.Fprintf(os.Stderr, "goodput:      %.0f ok-queries/s (%d ok, %d shed, %d timeouts, %d 5xx)\n",
		res.GoodputPerS, res.OK, res.Shed429, res.Timeouts, res.Errors5xx)
	fmt.Fprintf(os.Stderr, "latency ms:   p50 %.3f  p99 %.3f  max %.3f (ok responses only)\n",
		res.Latency.P50, res.Latency.P99, res.Latency.Max)
	fmt.Fprintf(os.Stderr, "server:       %d panics recovered, %d shed, %d approx answers\n",
		st.Panics, st.Shed, st.ApproxAnswers)
	if len(snap.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "recovered:    n/a (sections %v quarantined at load; server stays degraded)\n", snap.Quarantined)
	} else {
		fmt.Fprintf(os.Stderr, "recovered:    %v (post-fault probes byte-identical to baseline)\n", recovered)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		return err
	}
	if len(snap.Quarantined) == 0 && !recovered {
		return fmt.Errorf("chaos: server did not recover byte-identical answers")
	}
	if res.OK == 0 {
		return fmt.Errorf("chaos: zero goodput during the fault window")
	}
	return nil
}

// chaosProbeSet picks a fixed, size-aware set of query URLs used for the
// byte-identity check around the fault window.
func chaosProbeSet(base string, snap *snapshot.Snapshot) []string {
	n := snap.Graph.N()
	pair := func(a, b int) (int, int) { return a % n, b % n }
	u1, v1 := pair(3, 2*n/3)
	u2, v2 := pair(n/7, n-1)
	urls := []string{
		fmt.Sprintf("%s/v1/dist?u=%d&v=%d", base, u1, v1),
		fmt.Sprintf("%s/v1/dist?u=%d&v=%d", base, u2, v2),
	}
	if len(snap.Schemes) > 0 {
		urls = append(urls,
			fmt.Sprintf("%s/v1/route?s=%d&t=%d", base, u1, v2),
			fmt.Sprintf("%s/v1/route?s=%d&t=%d", base, v1, u2),
		)
	}
	return urls
}

func chaosProbe(urls []string) ([][]byte, error) {
	out := make([][]byte, len(urls))
	for i, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("probe %s: HTTP %d: %s", u, resp.StatusCode, body)
		}
		out[i] = body
	}
	return out, nil
}

// chaosStats reads the robustness slice of /v1/stats; errors degrade to a
// zero value since the caller only uses it for reporting and polling.
func chaosStats(base string) (st struct {
	Shed          int64    `json:"shed"`
	Panics        int64    `json:"panics"`
	ApproxAnswers int64    `json:"approx_answers"`
	BreakersOpen  int      `json:"breakers_open"`
	Degraded      bool     `json:"degraded"`
	Quarantined   []string `json:"quarantined"`
}) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(&st)
	return st
}
