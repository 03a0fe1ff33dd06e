package serve_test

// Deadline tests: every request whose deadline passes, wherever it is at
// the time, gets the same counted 503, and a timed-out task that keeps
// running never touches the buffers of the requests served after it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"navaug/internal/dist"
	"navaug/internal/fault"
	"navaug/internal/graph"
	"navaug/internal/serve"
)

const timedOutBody = `{"error":"request timed out"}` + "\n"

// checkTimedOut asserts the counted 503 answer of a request past its
// deadline.
func checkTimedOut(t *testing.T, code int, header http.Header, body []byte) {
	t.Helper()
	if code != http.StatusServiceUnavailable || string(body) != timedOutBody {
		t.Fatalf("status %d body %q, want 503 %q", code, body, timedOutBody)
	}
	if ct := header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
}

// checkCountedOnce asserts that /v1/stats counts one more timeout and one
// more error than before.
func checkCountedOnce(t *testing.T, base string, before chaosStats) {
	t.Helper()
	after := fetchChaosStats(t, base)
	if after.Timeouts != before.Timeouts+1 || after.Errors != before.Errors+1 {
		t.Fatalf("timeouts %d → %d, errors %d → %d; want each to rise by one",
			before.Timeouts, after.Timeouts, before.Errors, after.Errors)
	}
}

// TestRequestDeadline: a request whose deadline passes while its task is
// queued or running on a stalled worker, while a latency storm holds it,
// or before it is dispatched at all is answered 503 within the timeout
// plus slack, and counted once in both timeouts and errors.
func TestRequestDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, tc := range []struct {
		name, faults, method, path, body string
		cancelled                        bool // serve a request whose context has already ended
	}{
		{"stalled GET dist", "stall:shard=-1,delay=300ms", "GET", "/v1/dist?u=1&v=2", "", false},
		{"stalled POST dist", "stall:shard=-1,delay=300ms", "POST", "/v1/dist", `{"pairs":[[1,2],[3,4]]}`, false},
		{"stalled GET route", "stall:shard=-1,delay=300ms", "GET", "/v1/route?s=1&t=2", "", false},
		{"stalled POST route", "stall:shard=-1,delay=300ms", "POST", "/v1/route", `{"pairs":[[1,2],[3,4]]}`, false},
		{"storm longer than the timeout", "storm:p=1,delay=300ms", "GET", "/v1/dist?u=1&v=2", "", false},
		{"context already cancelled", "", "POST", "/v1/dist", `{"pairs":[[1,2]]}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inj *fault.Injector
			if tc.faults != "" {
				inj = parseFaults(t, tc.faults, 1)
			}
			_, srv, ts := newTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{
				Workers: 1, RequestTimeout: timeout, Faults: inj,
			})
			before := fetchChaosStats(t, ts.URL)
			inj.Activate()
			start := time.Now()
			var code int
			var header http.Header
			var body []byte
			if tc.cancelled {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
				srv.Handler().ServeHTTP(rec, req)
				code, header, body = rec.Code, rec.Header(), rec.Body.Bytes()
			} else {
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				code, header = resp.StatusCode, resp.Header
			}
			if elapsed := time.Since(start); elapsed > timeout+100*time.Millisecond {
				t.Errorf("answered after %v, want within %v", elapsed, timeout+100*time.Millisecond)
			}
			checkTimedOut(t, code, header, body)
			inj.Deactivate() // a storm would hold the stats request too
			checkCountedOnce(t, ts.URL, before)
		})
	}
}

// TestStalledBodyTimesOut: a batch whose body stops arriving part way is
// answered the counted 503 once the server's read timeout passes, instead
// of holding the connection open.
func TestStalledBodyTimesOut(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	_, _, ts := newUnstartedTestServer(t, "ratree", 64, dist.PolicyTwoHop, serve.Options{})
	ts.Config.ReadTimeout = readTimeout
	ts.Start()
	for _, path := range []string{"/v1/dist", "/v1/route"} {
		t.Run(path, func(t *testing.T) {
			before := fetchChaosStats(t, ts.URL)
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			start := time.Now()
			// Announce 100 body bytes and send 10 of them.
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"pairs\":[", path)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no answer to a stalled body: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > readTimeout+time.Second {
				t.Errorf("answered after %v with a %v read timeout", elapsed, readTimeout)
			}
			checkTimedOut(t, resp.StatusCode, resp.Header, body)
			checkCountedOnce(t, ts.URL, before)
		})
	}
}

// TestTimedOutBatchKeepsLaterAnswers times out a dist batch on a stalled
// worker and keeps sending batches of the same size while the abandoned
// task wakes and fills its distances: every later answer must equal BFS.
// The server has no O(1) tier, so each batch spends milliseconds in the
// field cache and the abandoned task runs beside a later one.  The
// abandoned batch is decoded by encoding/json (its key is "Pairs"), so its
// pairs are not in the buffer a later batch parses into; its distances
// are.  The collector is held off so that a buffer wrongly pooled stays
// pooled.  A handover shows up as a wrong answer or, under -race, a
// reported race, in a share of runs, not in every one.
func TestTimedOutBatchKeepsLaterAnswers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	inj := parseFaults(t, "stall:shard=-1,delay=1s", 1)
	snap, _, ts := newTestServer(t, "ratree", 256, dist.PolicyField, serve.Options{
		Workers: 2, RequestTimeout: 500 * time.Millisecond, Faults: inj,
	})
	n := snap.Graph.N()
	fields := make([][]int32, n)
	for u := range fields {
		fields[u] = snap.Graph.BFS(graph.NodeID(u))
	}
	// Bodies and answers are made up front, so the client spends little
	// time between batches.
	bodies, answers := make([][]byte, 64), make([][]byte, 64)
	for k := range bodies {
		pairs := randomPairs(n, 4096, uint64(k+2))
		dists := make([]int32, len(pairs))
		for i, p := range pairs {
			dists[i] = fields[p[0]][p[1]]
		}
		bodies[k], _ = json.Marshal(map[string]any{"pairs": pairs})
		answers[k], _ = json.Marshal(map[string]any{"dists": dists})
		answers[k] = append(answers[k], '\n')
	}
	stalled, _ := json.Marshal(map[string]any{"Pairs": randomPairs(n, 4096, 1)})

	inj.Activate()
	start := time.Now()
	code, body := postBody(t, ts.URL+"/v1/dist", stalled)
	if code != http.StatusServiceUnavailable || string(body) != timedOutBody {
		t.Fatalf("stalled batch: status %d body %q, want 503 %q", code, body, timedOutBody)
	}
	// Later tasks run at once; the abandoned one wakes at 1 s.
	inj.Deactivate()
	for k := 0; time.Since(start) < 1400*time.Millisecond; k++ {
		k := k % len(bodies)
		code, body := postBody(t, ts.URL+"/v1/dist", bodies[k])
		if code != http.StatusOK || !bytes.Equal(body, answers[k]) {
			t.Fatalf("batch %d: status %d, answer differs from BFS:\n got:  %.120s\n want: %.120s", k, code, body, answers[k])
		}
	}
}
