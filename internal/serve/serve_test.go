package serve_test

// The serve tests drive the full HTTP handler chain over httptest: answer
// correctness against the in-process oracle, determinism of routing over
// frozen draws, input validation, counter accounting, pool concurrency
// (exercised hard under -race by the parallel client test), and the
// loadgen client end to end.  Everything is seed-pinned: no test outcome
// depends on wall clock or scheduling.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// newTestServer builds a snapshot, serves it, and returns everything a
// test needs.  The snapshot round-trips through bytes so tests exercise
// exactly what a file-loaded server would run.
func newTestServer(t *testing.T, family string, n int, oracle dist.SourcePolicy, opts serve.Options) (*snapshot.Snapshot, *serve.Server, *httptest.Server) {
	t.Helper()
	snap, srv, ts := newUnstartedTestServer(t, family, n, oracle, opts)
	ts.Start()
	return snap, srv, ts
}

// newUnstartedTestServer is newTestServer with the httptest.Server not yet
// started, so a test can set its http.Server fields first.
func newUnstartedTestServer(t testing.TB, family string, n int, oracle dist.SourcePolicy, opts serve.Options) (*snapshot.Snapshot, *serve.Server, *httptest.Server) {
	t.Helper()
	built, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: family, N: n, Seed: 7,
		Schemes: []string{"ball", "uniform"}, Draws: 2,
		Oracle: oracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return snap, srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding body: %v", url, err)
	}
	return resp
}

// checkDistWire posts pairs to /v1/dist and GETs the first one singly,
// and checks both bodies byte for byte against json.NewEncoder's output
// for the response values the handler used to encode: the batch struct
// below and a map for the single query.  Exact answers must equal
// exact(u, v); approx ones must be marked and at or above it.
func checkDistWire(t *testing.T, base string, pairs [][2]int32, exact func(u, v int32) int32, approx bool) {
	t.Helper()
	type oldDistBatch struct {
		Dists  []int32 `json:"dists"`
		Approx bool    `json:"approx,omitempty"`
	}
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	payload, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	code, batch := postBody(t, base+"/v1/dist", payload)
	var got oldDistBatch
	if err := json.Unmarshal(batch, &got); code != http.StatusOK || err != nil {
		t.Fatalf("batch: status %d, err %v: %s", code, err, batch)
	}
	if got.Approx != approx || len(got.Dists) != len(pairs) {
		t.Fatalf("batch: %d dists for %d pairs, approx %v, want %v", len(got.Dists), len(pairs), got.Approx, approx)
	}
	for i, p := range pairs {
		if e := exact(p[0], p[1]); got.Dists[i] < e || (!approx && got.Dists[i] != e) {
			t.Fatalf("pair %d (%d,%d): dist %d, exact %d, approx %v", i, p[0], p[1], got.Dists[i], e, approx)
		}
	}
	if want := encode(got); string(batch) != want {
		t.Fatalf("batch body:\n got:  %q\n want: %q", batch, want)
	}
	u, v := graph.NodeID(pairs[0][0]), graph.NodeID(pairs[0][1])
	code, one := getBody(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", base, u, v))
	old := map[string]any{"u": u, "v": v, "dist": got.Dists[0]}
	if approx {
		old["approx"] = true
	}
	if want := encode(old); code != http.StatusOK || string(one) != want {
		t.Fatalf("single: status %d:\n got:  %q\n want: %q", code, one, want)
	}
}

func TestHealthz(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 128, dist.PolicyTwoHop, serve.Options{})
	var got struct {
		Status string `json:"status"`
		Family string `json:"family"`
		N      int    `json:"n"`
		Oracle string `json:"oracle"`
	}
	resp := getJSON(t, ts.URL+"/v1/healthz", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if got.Status != "ok" || got.Family != "ratree" || got.N != snap.Graph.N() || got.Oracle != "twohop" {
		t.Fatalf("healthz = %+v", got)
	}
}

func TestDistMatchesOracle(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 128, dist.PolicyTwoHop, serve.Options{})
	src := snap.Source()
	rng := xrand.New(21)
	n := snap.Graph.N()
	for i := 0; i < 64; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		var got struct {
			Dist int32 `json:"dist"`
		}
		resp := getJSON(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, u, v), &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dist(%d,%d) status %d", u, v, resp.StatusCode)
		}
		if want := src.Dist(graph.NodeID(u), graph.NodeID(v)); got.Dist != want {
			t.Fatalf("dist(%d,%d) = %d over HTTP, oracle says %d", u, v, got.Dist, want)
		}
	}
}

func TestDistBatchMatchesOracle(t *testing.T) {
	snap, _, ts := newTestServer(t, "gnp", 200, dist.PolicyTwoHop, serve.Options{})
	src := snap.Source()
	rng := xrand.New(22)
	n := int32(snap.Graph.N())
	pairs := make([][2]int32, 500)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
	}
	var got struct {
		Dists []int32 `json:"dists"`
	}
	resp := postJSON(t, ts.URL+"/v1/dist", map[string]any{"pairs": pairs}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(got.Dists) != len(pairs) {
		t.Fatalf("batch returned %d dists for %d pairs", len(got.Dists), len(pairs))
	}
	for i, p := range pairs {
		if want := src.Dist(p[0], p[1]); got.Dists[i] != want {
			t.Fatalf("pair %d (%d,%d): got %d, oracle says %d", i, p[0], p[1], got.Dists[i], want)
		}
	}
}

// TestDistBatchMatchesSingleGets serves 2-hop labels of a graph with two
// components and posts one batch holding self pairs, cross-component
// pairs and more pairs than one staging group of dist.TwoHop.DistBatch:
// each pair's GET body must be byte for byte the one its batch answer
// gives, and every answer the BFS distance.
func TestDistBatchMatchesSingleGets(t *testing.T) {
	const n = 100
	rng := xrand.New(23)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if v != n/2 {
			b.AddEdge(graph.NodeID(v), graph.NodeID(v/(n/2)*(n/2)+rng.Intn(v%(n/2))))
		}
	}
	g := b.Build()
	raw, err := (&snapshot.Snapshot{
		Meta:   snapshot.Meta{Family: "two-trees", N: n, M: g.M(), Seed: 23},
		Graph:  g,
		TwoHop: dist.NewTwoHop(g),
	}).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TwoHop == nil {
		t.Fatal("snapshot read back without its 2-hop labels")
	}
	srv, err := serve.New(snap, serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	pairs := randomPairs(n, 90, 24)
	for k := 0; k < len(pairs); k += 11 {
		pairs[k][1] = pairs[k][0]
	}
	pairs = append(pairs, [2]int32{0, n - 1}, [2]int32{n / 2, n/2 - 1})
	payload, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postBody(t, ts.URL+"/v1/dist", payload)
	var batch struct {
		Dists []int32 `json:"dists"`
	}
	if err := json.Unmarshal(body, &batch); code != http.StatusOK || err != nil || len(batch.Dists) != len(pairs) {
		t.Fatalf("batch: status %d, err %v: %s", code, err, body)
	}
	exact := bfsDist(g)
	for k, p := range pairs {
		d := batch.Dists[k]
		if want := exact(p[0], p[1]); d != want {
			t.Fatalf("pair %d (%d,%d): batch dist %d, BFS %d", k, p[0], p[1], d, want)
		}
		want := fmt.Sprintf("{\"dist\":%d,\"u\":%d,\"v\":%d}\n", d, p[0], p[1])
		if code, one := getBody(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, p[0], p[1])); code != http.StatusOK || string(one) != want {
			t.Fatalf("pair %d: GET status %d body %q, batch gives %q", k, code, one, want)
		}
	}
	if last := batch.Dists[len(pairs)-2:]; last[0] != graph.Unreachable || last[1] != graph.Unreachable {
		t.Fatalf("cross-component dists %v, want both %d", last, graph.Unreachable)
	}
}

// TestFieldFallback serves a snapshot with no O(1) tier: answers must
// still be exact through the BFS field cache.
func TestFieldFallback(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 96, dist.PolicyField, serve.Options{FieldCacheSize: 4})
	if snap.Source() != nil {
		t.Fatalf("field-policy snapshot unexpectedly packs an O(1) tier")
	}
	g := snap.Graph
	rng := xrand.New(23)
	for i := 0; i < 32; i++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		want := g.BFS(graph.NodeID(u))[v]
		var got struct {
			Dist int32 `json:"dist"`
		}
		getJSON(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, u, v), &got)
		if got.Dist != want {
			t.Fatalf("fallback dist(%d,%d) = %d, BFS says %d", u, v, got.Dist, want)
		}
	}
	var stats struct {
		Oracle string `json:"oracle"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Oracle != "field-cache" {
		t.Fatalf("stats oracle = %q, want field-cache", stats.Oracle)
	}
}

type routeResp struct {
	Scheme string `json:"scheme"`
	Draw   int    `json:"draw"`
	Result struct {
		S         int32   `json:"s"`
		T         int32   `json:"t"`
		Dist      int32   `json:"dist"`
		Steps     int     `json:"steps"`
		LongLinks int     `json:"long_links"`
		Reached   bool    `json:"reached"`
		Error     string  `json:"error"`
		Path      []int32 `json:"path"`
	} `json:"result"`
}

func TestRouteDeterministicAndValid(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 128, dist.PolicyTwoHop, serve.Options{})
	g := snap.Graph
	rng := xrand.New(31)
	for i := 0; i < 24; i++ {
		s, d := rng.Intn(g.N()), rng.Intn(g.N())
		url := fmt.Sprintf("%s/v1/route?s=%d&t=%d&scheme=ball&draw=1&trace=1", ts.URL, s, d)
		var first routeResp
		if resp := getJSON(t, url, &first); resp.StatusCode != http.StatusOK {
			t.Fatalf("route status %d", resp.StatusCode)
		}
		if first.Scheme != "ball" || first.Draw != 1 {
			t.Fatalf("route echoed scheme %q draw %d", first.Scheme, first.Draw)
		}
		if first.Result.Error != "" {
			t.Fatalf("route(%d,%d) errored: %s", s, d, first.Result.Error)
		}
		if !first.Result.Reached {
			t.Fatalf("route(%d,%d) did not reach on a connected tree", s, d)
		}
		// The traced path must be a real walk ending at the target with
		// the reported step count.
		p := first.Result.Path
		if len(p) != first.Result.Steps+1 || p[0] != int32(s) || p[len(p)-1] != int32(d) {
			t.Fatalf("route(%d,%d) path %v inconsistent with steps %d", s, d, p, first.Result.Steps)
		}
		// Frozen draws make answers reproducible across requests.
		var second routeResp
		getJSON(t, url, &second)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("route(%d,%d) is not deterministic: %+v vs %+v", s, d, first, second)
		}
	}
}

func TestRouteBatch(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 128, dist.PolicyTwoHop, serve.Options{})
	rng := xrand.New(32)
	n := int32(snap.Graph.N())
	pairs := make([][2]int32, 40)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
	}
	var got struct {
		Scheme  string `json:"scheme"`
		Results []struct {
			Reached bool   `json:"reached"`
			Steps   int    `json:"steps"`
			Error   string `json:"error"`
		} `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/v1/route", map[string]any{"pairs": pairs, "scheme": "uniform"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route batch status %d", resp.StatusCode)
	}
	if got.Scheme != "uniform" || len(got.Results) != len(pairs) {
		t.Fatalf("route batch: scheme %q, %d results for %d pairs", got.Scheme, len(got.Results), len(pairs))
	}
	for i, r := range got.Results {
		if r.Error != "" || !r.Reached {
			t.Fatalf("pair %d (%d,%d): %+v", i, pairs[i][0], pairs[i][1], r)
		}
	}
}

// TestRejectsBadRequests pins the status and, for node parameters and
// batch bodies, the error text: a body the fast dist parser declines gets exactly encoding/json's
// outcome, including the keys it matches case-insensitively, the last of
// duplicate keys, and short or long pairs.
func TestRejectsBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{MaxBatch: 8})
	nine, _ := json.Marshal(map[string]any{"pairs": make([][2]int32, 9)})
	for _, tc := range []struct {
		name, path, body string // body "" → GET
		wantErr          string // "" → status only
	}{
		{"missing param", "/v1/dist?u=1", "", `missing required parameter "v"`},
		{"non-numeric", "/v1/dist?u=1&v=abc", "", `parameter "v": strconv.ParseInt: parsing "abc": invalid syntax`},
		{"out of range", "/v1/dist?u=1&v=64", "", `parameter "v" = 64 out of range [0,64)`},
		{"negative", "/v1/dist?u=-1&v=2", "", `parameter "u" = -1 out of range [0,64)`},
		{"missing route param", "/v1/route?s=1", "", `missing required parameter "t"`},
		{"unknown scheme", "/v1/route?s=1&t=2&scheme=nope", "", ""},
		{"bad draw", "/v1/route?s=1&t=2&draw=99", "", ""},
		{"bad batch json", "/v1/dist", "{", "bad batch body: unexpected EOF"},
		{"oversized batch", "/v1/dist", string(nine), "batch of 9 pairs out of range [1,8]"},
		{"batch pair out of range", "/v1/dist", `{"pairs":[[0,64]]}`, "pair 0 = (0,64) out of range [0,64)"},
		{"empty batch", "/v1/dist", `{"pairs":[]}`, "batch of 0 pairs out of range [1,8]"},
		{"no pairs key", "/v1/dist", `{}`, "batch of 0 pairs out of range [1,8]"},
		{"fraction", "/v1/dist", `{"pairs":[[0,1.5]]}`,
			"bad batch body: json: cannot unmarshal number 1.5 into Go struct field distBatchRequest.pairs of type int32"},
		{"past int32", "/v1/dist", `{"pairs":[[2147483648,0]]}`,
			"bad batch body: json: cannot unmarshal number 2147483648 into Go struct field distBatchRequest.pairs of type int32"},
		{"leading zero", "/v1/dist", `{"pairs":[[01,2]]}`, "bad batch body: invalid character '1' after array element"},
		{"key case", "/v1/dist", `{"Pairs":[[0,64]]}`, "pair 0 = (0,64) out of range [0,64)"},
		{"duplicate key", "/v1/dist", `{"pairs":[[1,2]],"pairs":[[3,99]]}`, "pair 0 = (3,99) out of range [0,64)"},
		{"short and long pairs", "/v1/dist", `{"pairs":[[1,2,3],[70]]}`, "pair 1 = (70,0) out of range [0,64)"},
		{"trailing comma", "/v1/dist", `{"pairs":[[1,2],]}`, "bad batch body: invalid character ']' looking for beginning of value"},
	} {
		var code int
		var body []byte
		if tc.body == "" {
			code, body = getBody(t, ts.URL+tc.path)
		} else {
			code, body = postBody(t, ts.URL+tc.path, []byte(tc.body))
		}
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, code, body)
		}
		var got struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: error body %q: %v", tc.name, body, err)
		}
		if tc.wantErr != "" && got.Error != tc.wantErr {
			t.Fatalf("%s: error %q, want %q", tc.name, got.Error, tc.wantErr)
		}
	}
	// Method misuse is its own status.
	resp, err := http.Post(ts.URL+"/v1/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestBatchBodyLimit pins the bound on batch bodies: past about 64 bytes
// a pair plus 4 KiB, both batch endpoints answer 413 before decoding,
// while a json.MarshalIndent'ed batch of MaxBatch pairs — even at the
// int32 extremes — is still read and decoded.
func TestBatchBodyLimit(t *testing.T) {
	_, _, small := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{MaxBatch: 8})
	padded := append(bytes.Repeat([]byte(" "), 5000), `{"pairs":[[0,1]]}`...)
	for _, ep := range []string{"/v1/dist", "/v1/route"} {
		code, body := postBody(t, small.URL+ep, padded)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), `"error":"batch body over 4608 bytes"`) {
			t.Fatalf("POST %s of %d bytes: status %d: %s", ep, len(padded), code, body)
		}
	}

	const maxBatch = 8192
	_, _, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{})
	pretty := func(p [2]int32) []byte {
		pairs := make([][2]int32, maxBatch)
		for i := range pairs {
			pairs[i] = p
		}
		b, err := json.MarshalIndent(map[string]any{"pairs": pairs}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	extreme := pretty([2]int32{-2147483648, 2147483647})
	for _, ep := range []string{"/v1/dist", "/v1/route"} {
		code, body := postBody(t, ts.URL+ep, extreme)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "pair 0 = (-2147483648,2147483647) out of range") {
			t.Fatalf("POST %s of an indented %d-byte batch: status %d: %s", ep, len(extreme), code, body)
		}
	}
	code, body := postBody(t, ts.URL+"/v1/dist", pretty([2]int32{63, 0}))
	var got struct {
		Dists []int32 `json:"dists"`
	}
	if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil || len(got.Dists) != maxBatch {
		t.Fatalf("indented in-range batch: status %d, %d dists, err %v", code, len(got.Dists), err)
	}
}

func TestStatsCounters(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{Workers: 2})
	for i := 0; i < 5; i++ {
		var out map[string]any
		getJSON(t, fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, i, i+1), &out)
	}
	var batch struct {
		Dists []int32 `json:"dists"`
	}
	postJSON(t, ts.URL+"/v1/dist", map[string]any{"pairs": [][2]int32{{0, 1}, {2, 3}, {4, 5}}}, &batch)
	resp, err := http.Get(ts.URL + "/v1/dist?u=bad&v=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var stats struct {
		Family      string `json:"family"`
		N           int    `json:"n"`
		DistQueries int64  `json:"dist_queries"`
		Requests    int64  `json:"requests"`
		Errors      int64  `json:"errors"`
		Workers     int    `json:"workers"`
		Schemes     []string
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.DistQueries != 5+3 {
		t.Fatalf("dist_queries = %d, want 8", stats.DistQueries)
	}
	if stats.Errors != 1 {
		t.Fatalf("errors = %d, want 1", stats.Errors)
	}
	if stats.Requests < 7 {
		t.Fatalf("requests = %d, want >= 7", stats.Requests)
	}
	if stats.Workers != 2 || stats.N != snap.Graph.N() || stats.Family != "ratree" {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestParallelClients hammers every endpoint from many goroutines; under
// -race this pins the pool's shard-ownership discipline and the read-only
// sharing of the snapshot artefacts.
func TestParallelClients(t *testing.T) {
	snap, _, ts := newTestServer(t, "ratree", 256, dist.PolicyTwoHop, serve.Options{Workers: 4})
	src := snap.Source()
	n := snap.Graph.N()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := xrand.New(uint64(worker) + 100)
			for i := 0; i < 40; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				switch i % 4 {
				case 0:
					resp, err := http.Get(fmt.Sprintf("%s/v1/dist?u=%d&v=%d", ts.URL, u, v))
					if err != nil {
						errs <- err
						return
					}
					var got struct {
						Dist int32 `json:"dist"`
					}
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if want := src.Dist(graph.NodeID(u), graph.NodeID(v)); got.Dist != want {
						errs <- fmt.Errorf("dist(%d,%d) = %d, want %d", u, v, got.Dist, want)
						return
					}
				case 1:
					resp, err := http.Get(fmt.Sprintf("%s/v1/route?s=%d&t=%d", ts.URL, u, v))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 2:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				case 3:
					// Batches share pooled body and answer buffers; each
					// holds a self pair.
					pairs := randomPairs(n, 1+rng.Intn(64), uint64(worker*1000+i))
					pairs[len(pairs)/2][1] = pairs[len(pairs)/2][0]
					payload, _ := json.Marshal(map[string]any{"pairs": pairs})
					resp, err := http.Post(ts.URL+"/v1/dist", "application/json", bytes.NewReader(payload))
					if err != nil {
						errs <- err
						return
					}
					var got struct {
						Dists []int32 `json:"dists"`
					}
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if len(got.Dists) != len(pairs) {
						errs <- fmt.Errorf("batch of %d pairs got %d dists", len(pairs), len(got.Dists))
						return
					}
					for k, p := range pairs {
						if want := src.Dist(p[0], p[1]); got.Dists[k] != want {
							errs <- fmt.Errorf("batch dist(%d,%d) = %d, want %d", p[0], p[1], got.Dists[k], want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLoadgenAgainstServer(t *testing.T) {
	_, _, ts := newTestServer(t, "ratree", 256, dist.PolicyTwoHop, serve.Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:  ts.URL,
		Mode:     "dist",
		Duration: 300 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Conns:    2,
		Batch:    16,
		KeyDist:  "zipf",
		Seed:     9,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Requests == 0 || res.QueriesPerS <= 0 {
		t.Fatalf("loadgen measured no traffic: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen saw %d errors", res.Errors)
	}
	if res.Queries != res.Requests*16 {
		t.Fatalf("queries = %d for %d requests of batch 16", res.Queries, res.Requests)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 {
		t.Fatalf("implausible percentiles: %+v", res.Latency)
	}
	if res.ServerN != 256 || res.ServerOracle != "twohop" {
		t.Fatalf("server info not captured: %+v", res)
	}

	// Open-loop route mode exercises the scheduled-arrival path.
	res2, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:  ts.URL,
		Mode:     "route",
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Warmup:   time.Duration(-1), // disable
		Conns:    2,
		Scheme:   "ball",
		Seed:     9,
	})
	if err != nil {
		t.Fatalf("RunLoad(route): %v", err)
	}
	if !res2.OpenLoop || res2.Requests == 0 || res2.Errors != 0 {
		t.Fatalf("open-loop route run: %+v", res2)
	}
}

func TestLoadgenRejectsBadOptions(t *testing.T) {
	ctx := context.Background()
	if _, err := serve.RunLoad(ctx, serve.LoadOptions{}); err == nil {
		t.Fatal("RunLoad with no URL should fail")
	}
	if _, err := serve.RunLoad(ctx, serve.LoadOptions{BaseURL: "http://127.0.0.1:1", Mode: "nope"}); err == nil {
		t.Fatal("RunLoad with unknown mode should fail")
	}
	if _, err := serve.RunLoad(ctx, serve.LoadOptions{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("RunLoad against a dead server should fail at the probe")
	}
	_, _, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{})
	if _, err := serve.RunLoad(ctx, serve.LoadOptions{BaseURL: ts.URL, KeyDist: "nope"}); err == nil {
		t.Fatal("RunLoad with unknown key distribution should fail")
	}
}

// BenchmarkHandler times one request through Server.Handler in process,
// with no network, and reports its allocations: a single distance, a
// single route and a 256-pair distance batch on a 4096-node tree.
func BenchmarkHandler(b *testing.B) {
	snap, srv, _ := newUnstartedTestServer(b, "ratree", 4096, dist.PolicyTwoHop, serve.Options{Workers: 2})
	h := srv.Handler()
	n := snap.Graph.N()
	batch, err := json.Marshal(map[string]any{"pairs": randomPairs(n, 256, 1)})
	if err != nil {
		b.Fatal(err)
	}
	serveOne := func(b *testing.B, method, target string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
	}
	// Targets are formatted up front, so only the handler is measured.
	dists, routes := make([]string, 1024), make([]string, 1024)
	for i := range dists {
		u, v := i*31%n, i*7919%n
		dists[i] = fmt.Sprintf("/v1/dist?u=%d&v=%d", u, v)
		routes[i] = fmt.Sprintf("/v1/route?s=%d&t=%d", u, v)
	}
	b.Run("get-dist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			serveOne(b, "GET", dists[i%len(dists)], nil)
		}
	})
	b.Run("get-route", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			serveOne(b, "GET", routes[i%len(routes)], nil)
		}
	})
	b.Run("post-dist-256", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			serveOne(b, "POST", "/v1/dist", batch)
		}
	})
}
