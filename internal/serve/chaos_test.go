package serve_test

// Chaos contract tests: the serving stack under injected faults.  Each
// test drives the real HTTP handler chain with a deterministic
// fault.Injector and asserts the robustness contract end to end — nonzero
// goodput and bounded shedding under overload, zero escaped panics,
// quarantine and recovery of panicking shards with every answer staying
// byte-identical, the approximate answer tier on damaged snapshots, and
// byte-identical answers once faults clear.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/fault"
	"navaug/internal/graph"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// chaosStats is the /v1/stats slice the chaos assertions read.
type chaosStats struct {
	Requests      int64    `json:"requests"`
	DistQueries   int64    `json:"dist_queries"`
	RouteQueries  int64    `json:"route_queries"`
	Errors        int64    `json:"errors"`
	Shed          int64    `json:"shed"`
	Panics        int64    `json:"panics"`
	ApproxAnswers int64    `json:"approx_answers"`
	Timeouts      int64    `json:"timeouts"`
	BreakersOpen  int      `json:"breakers_open"`
	Landmarks     int      `json:"landmarks"`
	Degraded      bool     `json:"degraded"`
	Draining      bool     `json:"draining"`
	Tier          string   `json:"tier"`
	Quarantined   []string `json:"quarantined"`
}

// parseFaults parses a fault schedule the test knows to be valid.
func parseFaults(t *testing.T, spec string, seed uint64) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func fetchChaosStats(t *testing.T, base string) chaosStats {
	t.Helper()
	var st chaosStats
	getJSON(t, base+"/v1/stats", &st)
	return st
}

// getBody fetches a URL and returns status and raw body, for byte-identity
// probes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

// randomPairs draws k seeded pairs of nodes in [0, n).
func randomPairs(n, k int, seed uint64) [][2]int32 {
	rng := xrand.New(seed)
	pairs := make([][2]int32, k)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return pairs
}

// bfsDist returns exact distances in g by BFS from u.
func bfsDist(g *graph.Graph) func(u, v int32) int32 {
	return func(u, v int32) int32 { return g.BFS(graph.NodeID(u))[v] }
}

// postBody posts a raw payload and returns status and raw body.
func postBody(t *testing.T, url string, payload []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

// probeSet is a fixed set of query URLs whose responses must be
// byte-identical before faults and after recovery.
func probeSet(base string) []string {
	return []string{
		base + "/v1/dist?u=3&v=97",
		base + "/v1/dist?u=0&v=200",
		base + "/v1/route?s=5&t=180",
		base + "/v1/route?s=42&t=7&scheme=uniform&draw=1",
	}
}

func captureProbes(t *testing.T, urls []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(urls))
	for i, u := range urls {
		code, body := getBody(t, u)
		if code != http.StatusOK {
			t.Fatalf("probe %s returned %d: %s", u, code, body)
		}
		out[i] = body
	}
	return out
}

// TestChaosContractStallAndStorm is the headline contract: a stalled pool
// plus a latency storm bigger than the request timeout must yield (a)
// nonzero goodput, (b) load shed as 429s rather than unbounded queueing,
// (c) zero escaped panics, and (d) byte-identical answers once the fault
// window closes.
func TestChaosContractStallAndStorm(t *testing.T) {
	inj := parseFaults(t, "stall:shard=-1,delay=40ms,dur=1200ms;storm:p=0.1,delay=500ms,dur=1200ms", 11)
	_, _, ts := newTestServer(t, "ratree", 256, dist.PolicyTwoHop, serve.Options{
		Workers: 2, QueueDepth: 2, RequestTimeout: 300 * time.Millisecond,
		Landmarks: 8, Faults: inj,
	})

	before := captureProbes(t, probeSet(ts.URL))
	inj.Activate()
	start := time.Now()

	var ok200, shed429, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < time.Second; i++ {
				var url string
				if (c+i)%2 == 0 {
					url = fmt.Sprintf("%s/v1/route?s=%d&t=%d", ts.URL, (c*31+i)%256, (i*17+3)%256)
				} else {
					url = fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, (c*13+i)%256, (i*7+1)%256)
				}
				resp, err := http.Get(url)
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no goodput under chaos: every request failed")
	}
	if shed429.Load() == 0 {
		t.Fatal("overload never shed: queue must be unbounded or stall ineffective")
	}
	st := fetchChaosStats(t, ts.URL)
	if st.Panics != 0 {
		t.Fatalf("stall+storm chaos produced %d panics", st.Panics)
	}
	if st.Shed == 0 {
		t.Fatalf("server shed counter stayed 0 with %d client 429s", shed429.Load())
	}

	// Let the fault window close, then the exact same queries must answer
	// byte-identically to the pre-fault baseline.
	if sleepFor := 1400*time.Millisecond - time.Since(start); sleepFor > 0 {
		time.Sleep(sleepFor)
	}
	after := captureProbes(t, probeSet(ts.URL))
	for i := range before {
		if string(before[i]) != string(after[i]) {
			t.Fatalf("probe %d diverged after fault window:\n before: %s\n after:  %s",
				i, before[i], after[i])
		}
	}
	if st := fetchChaosStats(t, ts.URL); st.Degraded {
		t.Fatal("server still reports degraded after the fault window closed")
	}
}

// TestPanicQuarantineExact quarantines one shard while the other keeps
// serving: shard 0 panics on every task, its breaker trips and stays open
// (the cooldown outlasts the test), and every answer the healthy shard
// gives meanwhile is byte-identical to the pre-fault baseline.
func TestPanicQuarantineExact(t *testing.T) {
	inj := parseFaults(t, "panic:shard=0,p=1,dur=800ms", 5)
	_, _, ts := newTestServer(t, "ratree", 256, dist.PolicyTwoHop, serve.Options{
		Workers: 2, BreakerThreshold: 2, BreakerCooldown: 2 * time.Second,
		Faults: inj,
	})

	probes := probeSet(ts.URL)
	before := captureProbes(t, probes)
	inj.Activate()

	ok200, saw500 := 0, 0
	for i := 0; i < 60; i++ {
		code, body := getBody(t, probes[i%len(probes)])
		switch code {
		case http.StatusOK:
			ok200++
			if want := before[i%len(probes)]; string(body) != string(want) {
				t.Fatalf("request %d diverged while shard 0 was quarantined:\n before: %s\n during: %s",
					i, want, body)
			}
		case http.StatusInternalServerError:
			saw500++
		default:
			t.Fatalf("request %d: unexpected HTTP %d: %s", i, code, body)
		}
	}
	if saw500 == 0 {
		t.Fatal("shard 0 never panicked: injection or dispatch broken")
	}
	if ok200 == 0 {
		t.Fatal("no answers while one shard was quarantined")
	}
	if st := fetchChaosStats(t, ts.URL); st.ApproxAnswers != 0 {
		t.Fatalf("%d approximate answers during a one-shard quarantine", st.ApproxAnswers)
	}
}

// TestPanicQuarantineRecover drives every shard through the full breaker
// lifecycle: injected panics are recovered (500s, not a crash), the
// breakers trip, and once the fault window closes the half-open probes
// close them again — answers are byte-identical to the pre-fault ones.
func TestPanicQuarantineRecover(t *testing.T) {
	inj := parseFaults(t, "panic:shard=-1,p=1,dur=300ms", 5)
	_, _, ts := newTestServer(t, "ratree", 256, dist.PolicyTwoHop, serve.Options{
		Workers: 2, QueueDepth: 4, BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
		Faults: inj,
	})

	before := captureProbes(t, probeSet(ts.URL))
	inj.Activate()

	// Hammer during the window: every task panics, so we must observe 500s
	// and the breakers must trip without taking the process down.
	saw500 := false
	for i := 0; i < 24; i++ {
		code, _ := getBody(t, fmt.Sprintf("%s/v1/route?s=%d&t=%d", ts.URL, i%256, (i*31+9)%256))
		if code == http.StatusInternalServerError {
			saw500 = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw500 {
		t.Fatal("panic storm produced no 500s: injection or recovery path broken")
	}
	mid := fetchChaosStats(t, ts.URL)
	if mid.Panics == 0 {
		t.Fatal("no panics counted during a p=1 panic window")
	}

	// Recovery: keep sending probe traffic until both shards have closed
	// their breakers, then check byte-identity.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Concurrent requests so both workers get probe tasks.
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resp, err := http.Get(fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, k, k+100))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(k)
		}
		wg.Wait()
		st := fetchChaosStats(t, ts.URL)
		if !st.Degraded && st.BreakersOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never recovered: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := captureProbes(t, probeSet(ts.URL))
	for i := range before {
		if string(before[i]) != string(after[i]) {
			t.Fatalf("probe %d not byte-identical after recovery:\n before: %s\n after:  %s",
				i, before[i], after[i])
		}
	}
}

// TestNewRejectsFaultsOnMissingShards: a stall or panic aimed at a shard
// the pool does not have would never fire, so New refuses the schedule
// instead of running a drill that injects nothing.
func TestNewRejectsFaultsOnMissingShards(t *testing.T) {
	snap, _, err := core.BuildSnapshot(core.SnapshotOptions{Family: "grid", N: 16, Seed: 7, Oracle: dist.PolicyField})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		faults  string
		workers int
		wantErr bool
	}{
		{"stall:shard=3,delay=1ms", 2, true},
		{"panic:shard=2", 2, true},
		{"stall:shard=1,delay=1ms", 2, false},
		{"stall:shard=-1,delay=1ms;panic:shard=-1", 2, false},
		{"latency:delay=1ms;mem", 1, false},
	} {
		t.Run(tc.faults, func(t *testing.T) {
			srv, err := serve.New(snap, serve.Options{Workers: tc.workers, Faults: parseFaults(t, tc.faults, 1)})
			if err == nil {
				srv.Close()
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("New with %d workers: err = %v, want an error: %v", tc.workers, err, tc.wantErr)
			}
		})
	}
}

// TestQuarantinedSnapshotServesApprox is the load-path half of the ladder:
// a snapshot whose 2-hop section is corrupt loads tolerantly, starts
// degraded, and under memory pressure serves landmark upper bounds marked
// "approx": true — never an underestimate, never a refusal to start.
func TestQuarantinedSnapshotServesApprox(t *testing.T) {
	built, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: "ratree", N: 256, Seed: 7,
		Schemes: []string{"ball"}, Draws: 1, Oracle: dist.PolicyTwoHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.CorruptSection(b, "twohop"); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadBytesTolerant(b)
	if err != nil {
		t.Fatalf("tolerant load: %v", err)
	}
	if len(snap.Quarantined) != 1 || snap.Quarantined[0] != "twohop" {
		t.Fatalf("Quarantined = %v", snap.Quarantined)
	}

	inj := parseFaults(t, "mem", 3)
	inj.Activate()
	srv, err := serve.New(snap, serve.Options{Workers: 2, Landmarks: 8, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	st := fetchChaosStats(t, ts.URL)
	if !st.Degraded || st.Tier != "landmark" || len(st.Quarantined) != 1 {
		t.Fatalf("degraded stats wrong: %+v", st)
	}

	// Landmark answers are upper bounds on the true distance, never less.
	exact := snap.Graph.BFS(5)
	for _, v := range []int{0, 17, 100, 255} {
		var got struct {
			Dist   int32 `json:"dist"`
			Approx bool  `json:"approx"`
		}
		getJSON(t, fmt.Sprintf("%s/v1/dist?u=5&v=%d", ts.URL, v), &got)
		if !got.Approx {
			t.Fatalf("dist(5,%d) under mem pressure not marked approx", v)
		}
		if got.Dist < exact[v] {
			t.Fatalf("landmark dist(5,%d) = %d underestimates exact %d", v, got.Dist, exact[v])
		}
	}

	// A batch and a single query under pressure: landmark bounds marked
	// approx, in the bytes encoding/json wrote for the same values.
	checkDistWire(t, ts.URL, randomPairs(256, 48, 42), bfsDist(snap.Graph), true)

	// Pressure released: the ladder climbs back to the exact field tier,
	// but the quarantined section keeps the server marked degraded.
	inj.Deactivate()
	var got struct {
		Dist   int32 `json:"dist"`
		Approx bool  `json:"approx"`
	}
	getJSON(t, ts.URL+"/v1/dist?u=5&v=100", &got)
	if got.Approx || got.Dist != exact[100] {
		t.Fatalf("after pressure release dist(5,100) = %d approx=%v, want exact %d", got.Dist, got.Approx, exact[100])
	}
	if st := fetchChaosStats(t, ts.URL); !st.Degraded || st.Tier != "field-cache" {
		t.Fatalf("post-release stats wrong: %+v", st)
	}
}

// TestLandmarksOnlyBeneathFieldCache pins where the approximate tier
// exists.  A snapshot with an exact O(1) tier builds no landmarks: with
// its pool saturated, a single GET /v1/dist is answered inline from that
// tier, exactly and without an "approx" key, even under memory pressure.
// A snapshot whose exact tier was quarantined at load, or that packs none,
// still builds them, and the same overloaded GET gets a landmark bound
// marked approx.
func TestLandmarksOnlyBeneathFieldCache(t *testing.T) {
	const stall = time.Second
	cases := []struct {
		name          string
		family        string
		oracle        dist.SourcePolicy
		corrupt       string // section damaged before the tolerant load
		wantTier      string
		wantLandmarks int
	}{
		{"twohop", "ratree", dist.PolicyTwoHop, "", "twohop", 0},
		{"analytic", "grid", dist.PolicyAuto, "", "analytic", 0},
		{"twohop quarantined", "ratree", dist.PolicyTwoHop, "twohop", "landmark", 16},
		{"field", "ratree", dist.PolicyField, "", "landmark", 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, _, err := core.BuildSnapshot(core.SnapshotOptions{
				Family: tc.family, N: 256, Seed: 7,
				Schemes: []string{"ball"}, Draws: 1, Oracle: tc.oracle,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := built.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if tc.corrupt != "" {
				if err := snapshot.CorruptSection(b, tc.corrupt); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := snapshot.ReadBytesTolerant(b)
			if err != nil {
				t.Fatalf("tolerant load: %v", err)
			}
			inj := parseFaults(t, fmt.Sprintf("mem;stall:shard=0,delay=%s", stall), 9)
			srv, err := serve.New(snap, serve.Options{
				Workers: 1, QueueDepth: 1, RequestTimeout: 10 * time.Second, Faults: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()

			inj.Activate()
			if st := fetchChaosStats(t, ts.URL); st.Tier != tc.wantTier || st.Landmarks != tc.wantLandmarks {
				t.Fatalf("tier %q with %d landmarks, want %q with %d", st.Tier, st.Landmarks, tc.wantTier, tc.wantLandmarks)
			}

			// Saturate the pool: one route stalls on the only worker, one
			// waits in the queue, and the next is shed.
			var fillers sync.WaitGroup
			defer fillers.Wait()
			for i := 0; i < 3; i++ {
				fillers.Add(1)
				go func() {
					defer fillers.Done()
					if resp, err := http.Get(fmt.Sprintf("%s/v1/route?s=%d&t=200", ts.URL, i)); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); fetchChaosStats(t, ts.URL).Shed == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the pool never filled")
				}
				time.Sleep(time.Millisecond)
			}

			start := time.Now()
			var got map[string]any
			getJSON(t, ts.URL+"/v1/dist?u=5&v=100", &got)
			if elapsed := time.Since(start); elapsed >= stall/2 {
				t.Fatalf("overloaded GET took %v: it waited for the stalled worker", elapsed)
			}
			inj.Deactivate()
			want := float64(snap.Graph.BFS(5)[100])
			approx, hasApprox := got["approx"]
			if tc.wantLandmarks == 0 {
				if hasApprox || got["dist"] != want {
					t.Fatalf("overloaded GET = %v, want the exact dist %v with no approx key", got, want)
				}
			} else if approx != true || got["dist"].(float64) < want {
				t.Fatalf("overloaded GET = %v, want an approx bound >= %v", got, want)
			}
			wantApprox := int64(0)
			if tc.wantLandmarks > 0 {
				wantApprox = 1
			}
			if st := fetchChaosStats(t, ts.URL); st.ApproxAnswers != wantApprox {
				t.Fatalf("approx_answers = %d, want %d", st.ApproxAnswers, wantApprox)
			}

			// Faults cleared, every tier answers exactly, in the bytes
			// encoding/json wrote for the same values.
			fillers.Wait()
			checkDistWire(t, ts.URL, randomPairs(256, 48, 41), bfsDist(snap.Graph), false)
		})
	}
}

// landmarkGolden pins the approximate tier's answers: a field-cache
// snapshot (no O(1) exact tier) under simulated memory pressure serves
// every distance from the landmark tier, and the raw response bodies of a
// fixed batch and single query must stay byte-identical.  Landmark choice
// and rows depend only on the graph and the fixed landmark seed, so any
// change to the construction or the bound evaluation shows up here.
var landmarkGolden = []struct {
	family     string
	n          int
	batch, one string
}{
	{"powerlaw-tree", 2048,
		`{"dists":[18,19,16,17,16,12,13,16,16,13,20,12,17,13,13,14,19,21,17,16,9,16,14,13,13,20,17,9,19,12,15,11,15,14,14,16,13,12,15,17,14,19,14,10,14,18,23,12],"approx":true}`,
		`{"approx":true,"dist":15,"u":1212,"v":2047}`},
	{"grid", 1024,
		`{"dists":[27,33,41,19,13,17,27,16,21,15,37,7,33,34,44,22,19,23,13,12,27,36,13,17,25,14,10,31,12,16,35,20,19,30,40,23,46,47,51,11,43,11,10,27,10,15,19,20],"approx":true}`,
		`{"approx":true,"dist":46,"u":78,"v":1023}`},
}

func TestLandmarkTierGolden(t *testing.T) {
	for _, tc := range landmarkGolden {
		t.Run(fmt.Sprintf("%s-%d", tc.family, tc.n), func(t *testing.T) {
			inj := parseFaults(t, "mem", 1)
			inj.Activate()
			_, _, ts := newTestServer(t, tc.family, tc.n, dist.PolicyField, serve.Options{Workers: 2, Faults: inj})
			if st := fetchChaosStats(t, ts.URL); st.Tier != "landmark" {
				t.Fatalf("tier = %q under memory pressure, want landmark", st.Tier)
			}
			rng := xrand.New(uint64(tc.n))
			pairs := make([][2]int, 48)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(tc.n), rng.Intn(tc.n)}
			}
			payload, err := json.Marshal(map[string]any{"pairs": pairs})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/dist", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: status %d, err %v: %s", resp.StatusCode, err, batch)
			}
			code, one := getBody(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, pairs[0][0], tc.n-1))
			if code != http.StatusOK {
				t.Fatalf("single query: status %d: %s", code, one)
			}
			if got := strings.TrimSpace(string(batch)); got != tc.batch {
				t.Errorf("batch body changed:\n got:  %s\n want: %s", got, tc.batch)
			}
			if got := strings.TrimSpace(string(one)); got != tc.one {
				t.Errorf("single body changed:\n got:  %s\n want: %s", got, tc.one)
			}
		})
	}
}

// TestDrainSplitsLivenessFromReadiness pins the health split: draining
// flips readiness to 503 while liveness stays 200 and accepted queries
// still answer.
func TestDrainSplitsLivenessFromReadiness(t *testing.T) {
	_, srv, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{Workers: 2})
	for _, ep := range []string{"/v1/livez", "/v1/readyz", "/v1/healthz"} {
		if code, body := getBody(t, ts.URL+ep); code != http.StatusOK {
			t.Fatalf("%s = %d before drain: %s", ep, code, body)
		}
	}
	srv.BeginDrain()
	if code, _ := getBody(t, ts.URL+"/v1/livez"); code != http.StatusOK {
		t.Fatalf("livez = %d while draining, want 200", code)
	}
	for _, ep := range []string{"/v1/readyz", "/v1/healthz"} {
		code, body := getBody(t, ts.URL+ep)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d while draining, want 503: %s", ep, code, body)
		}
	}
	// In-flight / late queries still answer: drain refuses readiness, not
	// work.
	if code, body := getBody(t, ts.URL+"/v1/dist?u=1&v=30"); code != http.StatusOK {
		t.Fatalf("dist while draining = %d: %s", code, body)
	}
}

// TestSoakChaos runs the full stack under simultaneous stall, storm and
// panic faults for several seconds, asserting zero escaped panics (the
// test binary itself would die) and monotonic stats counters throughout.
// Skipped under -short; the CI race job runs it explicitly.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: several seconds of chaos traffic")
	}
	inj := parseFaults(t, "stall:shard=-1,delay=2ms;storm:p=0.05,delay=80ms;panic:shard=-1,p=0.02", 17)
	_, _, ts := newTestServer(t, "ratree", 512, dist.PolicyTwoHop, serve.Options{
		Workers: 4, QueueDepth: 4, RequestTimeout: 250 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		Landmarks: 8, Faults: inj,
	})
	inj.Activate()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				switch (c + i) % 3 {
				case 0:
					url = fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, (c*97+i)%512, (i*13+1)%512)
				case 1:
					url = fmt.Sprintf("%s/v1/route?s=%d&t=%d", ts.URL, (c*41+i)%512, (i*29+7)%512)
				default:
					url = ts.URL + "/v1/healthz"
				}
				resp, err := http.Get(url)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}

	// Sample stats throughout; every counter must be monotonic.
	counters := func(st chaosStats) []int64 {
		return []int64{st.Requests, st.DistQueries, st.RouteQueries, st.Errors,
			st.Shed, st.Panics, st.ApproxAnswers, st.Timeouts}
	}
	names := []string{"requests", "dist_queries", "route_queries", "errors",
		"shed", "panics", "approx_answers", "timeouts"}
	prev := counters(fetchChaosStats(t, ts.URL))
	soakEnd := time.Now().Add(4 * time.Second)
	for time.Now().Before(soakEnd) {
		time.Sleep(200 * time.Millisecond)
		cur := counters(fetchChaosStats(t, ts.URL))
		for i := range cur {
			if cur[i] < prev[i] {
				t.Fatalf("counter %s went backwards: %d -> %d", names[i], prev[i], cur[i])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()

	// Every injected panic was recovered: reaching this line at all means
	// none escaped the worker shield (an escaped panic kills the process).
	st := fetchChaosStats(t, ts.URL)
	if st.Requests == 0 || st.Panics == 0 {
		t.Fatalf("soak exercised nothing: %+v", st)
	}
}
