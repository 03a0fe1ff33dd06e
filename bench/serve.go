package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"navaug/internal/augment"
	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/route"
	"navaug/internal/scenario"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// serveSpec is a serving workload: a snapshot of one graph served in this
// process, single queries on the GET endpoint for latency and batches on
// the POST endpoint for throughput, and in traced runs an open loop on the
// GET endpoint.  The operation is one query.
type serveSpec struct {
	family string
	n      int
	mode   string  // "dist" or "route"
	rate   float64 // open-loop arrivals per second
	batch  int     // pairs per throughput request
}

func (sp *serveSpec) size(w *worker) int {
	if w.toy {
		return toyN
	}
	return sp.n
}

// prep builds and writes the snapshot; it runs untimed, before measure.
// The snapshot has the auto oracle policy (packed 2-hop labels on these
// families) and two frozen draws of the uniform scheme, as
// `navsim snapshot -scheme uniform -draws 2` builds it.  It is built at the
// workload's own seed whatever the run seed, so that every run serves the
// same graph; the run seed draws the queries.
func (sp *serveSpec) prep(w *worker) error {
	snap, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: sp.family, N: sp.size(w), Seed: w.wl.seed, Schemes: []string{"uniform"}, Draws: 2})
	if err != nil {
		return err
	}
	return snap.WriteFile(w.snapPath())
}

func (sp *serveSpec) measure(w *worker) error {
	c := newClient()
	defer c.CloseIdleConnections()
	gauge := newGauge()
	l, _, err := setUp(w, c, gauge)
	if err != nil {
		return err
	}
	defer l.stop(c)
	g := l.snap.Graph
	keys := xrand.New(w.seed ^ 0x6a09e667f3bcc909)
	if sp.mode == "dist" {
		gateDist(w, c, l.base, g, keys, 8, 256)
	} else {
		gateRoute(w, c, l, keys, 256)
	}
	before, err := serverStats(w, c, l.base)
	if err != nil {
		return err
	}
	get := func(p [2]int32) request {
		if sp.mode == "dist" {
			return request{url: l.base + "/v1/dist?u=" + itoa(p[0]) + "&v=" + itoa(p[1])}
		}
		return request{url: l.base + "/v1/route?s=" + itoa(p[0]) + "&t=" + itoa(p[1])}
	}

	// Latency and throughput segments alternate for the run's seconds, so
	// that both metrics sample the whole run, not one half each: the
	// machine's speed drifts over seconds.  A latency segment sends single
	// queries one at a time; a throughput segment keeps every connection
	// busy with batches.  Each segment is timed between two readings of the
	// core speed, and each metric is its median segment's.
	load := w.tr.begin("phase.load", w.root)
	seqKeys := keys.Split()
	single := func() request { return get(randomPair(seqKeys, g.N())) }
	rngs := []*xrand.RNG{keys.Split(), keys.Split()}
	batch := func(conn int) request {
		return request{url: l.base + "/v1/" + sp.mode, body: batchBody(rngs[conn], g.N(), sp.batch)}
	}
	closedIDs := make(map[int64]bool) // throughput segment spans
	warm := w.tr.begin("segment.closed", load.id)
	closedIDs[warm.id] = true
	sent, failed := closedLoop(c, w.tr, warm.id, w.seconds/20, batch)
	warm.end()
	var cost meter
	var measured float64 // queries answered in the throughput segments
	var p50s, wall50s, rates, wallRates []float64
	for range max(1, int(w.seconds/(2*segment))) {
		gauge.read()
		tm := w.tr.begin("segment.sequential", load.id)
		lat, s, f := sequential(c, w.tr, tm.id, segment, single)
		tm.end()
		factor := gauge.lap()
		w.res.ops(s, f)
		if len(lat) > 0 {
			p50s, wall50s = append(p50s, median(lat)*factor), append(wall50s, median(lat))
		}

		gauge.read()
		tm = w.tr.begin("segment.closed", load.id)
		closedIDs[tm.id] = true
		start := readMeter()
		s, f = closedLoop(c, w.tr, tm.id, segment, batch)
		wall := tm.end()
		cost.add(start)
		factor = gauge.lap()
		sent, failed = sent+s, failed+f
		queries := float64((s - f) * int64(sp.batch))
		measured += queries
		rates, wallRates = append(rates, queries/wall.Seconds()/factor), append(wallRates, queries/wall.Seconds())
	}
	load.end()
	cost.report(w.res, measured)
	answered := float64((sent - failed) * int64(sp.batch)) // with the warm-up's
	w.res.setScaled("p50_ms", median(p50s), median(wall50s))
	w.res.setScaled("ops_per_s", median(rates), median(wallRates))
	w.res.ops(sent*int64(sp.batch), failed*int64(sp.batch))

	// Open loop, traced runs only: single queries at a fixed rate for the
	// tail latency and the handler's share of a request.
	var pairs [][2]int32
	var samples []sample
	if w.tr != nil {
		pairs = randomPairs(keys, g.N(), int(sp.rate*w.seconds.Seconds()/2))
		reqs := make([]request, len(pairs))
		for i, p := range pairs {
			reqs[i] = get(p)
		}
		open := w.tr.begin("phase.open", w.root)
		samples = openLoop(c, w.tr, open.id, reqs, sp.rate)
		open.end()
		reportOpen(w, samples)
	}

	after, err := serverStats(w, c, l.base)
	if err != nil {
		return err
	}
	w.res.set("serve.shed", float64(after.Shed-before.Shed))
	w.res.set("serve.timeouts", float64(after.Timeouts-before.Timeouts))
	w.res.set("serve.errors", float64(after.Errors-before.Errors))
	if d := after.Approx - before.Approx; d > 0 {
		w.res.ops(0, d)
		w.res.problem("server gave %d approximate answers under load", d)
	}
	if w.tr == nil {
		return nil
	}

	// Layer replays, traced runs only: the same probes and routes again, in
	// process, against the loaded snapshot.
	if err := graphBuild(w, sp.family, sp.size(w), w.wl.seed); err != nil {
		return err
	}
	if err := snapshotLayers(w, l.snap); err != nil {
		return err
	}
	handler := handlerLayers(w, samples, closedIDs, answered)
	var perQuery float64 // µs of oracle or routing work in one query
	if sp.mode == "dist" {
		probeLayers(w, l.snap, pairs)
		perQuery = w.res.Metrics["dist.probe_ns"] / 1e3
	} else {
		if err := routeLayers(w, l.snap, pairs[:min(len(pairs), 4000)]); err != nil {
			return err
		}
		perQuery = w.res.Metrics["route.greedy_us"]
	}
	w.res.set("serve.overhead_us_per_query", handler-perQuery)
	return nil
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }

// randomPair draws a uniform pair of distinct nodes.
func randomPair(rng *xrand.RNG, n int) [2]int32 {
	u, v := int32(rng.Intn(n)), int32(rng.Intn(n-1))
	if v >= u {
		v++
	}
	return [2]int32{u, v}
}

// randomPairs draws k uniform pairs of distinct nodes.
func randomPairs(rng *xrand.RNG, n, k int) [][2]int32 {
	out := make([][2]int32, k)
	for i := range out {
		out[i] = randomPair(rng, n)
	}
	return out
}

func batchBody(rng *xrand.RNG, n, batch int) []byte {
	b, _ := json.Marshal(map[string]any{"pairs": randomPairs(rng, n, batch)}) // cannot fail on int pairs
	return b
}

// segment is the length of one measurement in the latency and throughput
// phases.  Each phase is cut into such segments, each timed between two
// readings of the core speed, and reports its median segment.
const segment = 250 * time.Millisecond

// latencyWindow is the number of open-loop requests per latency window:
// ten samples lie beyond each window's p99.
const latencyWindow = 1000

// reportOpen turns the open-loop samples into the per-layer latency
// metrics.  The samples are cut into consecutive windows of latencyWindow
// requests, and the p50 and p99 are the medians of the windows' p50s and
// p99s, so that one stall cannot decide them.
func reportOpen(w *worker, samples []sample) {
	var lat, late []float64
	var failed int64
	for _, s := range samples {
		late = append(late, float64(s.late)/1e3)
		if !s.ok {
			failed++
			continue
		}
		lat = append(lat, float64(s.latency)/1e6)
	}
	var p50s, p99s []float64
	k := max(1, len(lat)/latencyWindow)
	for j := range k {
		win := lat[j*len(lat)/k : (j+1)*len(lat)/k]
		p50s = append(p50s, median(win))
		p99s = append(p99s, quantile(win, 0.99))
	}
	w.res.ops(int64(len(samples)), failed)
	w.res.set("loadgen.open_p50_ms", median(p50s))
	w.res.set("p99_ms", median(p99s))
	w.res.set("loadgen.samples", float64(len(lat)))
	w.res.set("loadgen.late_p50_us", median(late))
	w.res.set("loadgen.late_p99_us", quantile(late, 0.99))
}

// live is one in-process server over a loaded snapshot, with the times
// its set-up took.
type live struct {
	snap *snapshot.Snapshot
	srv  *serve.Server
	http *http.Server
	done chan struct{} // closed when http.Serve returns
	base string

	load, build, setup time.Duration // ReadFile, serve.New, all of it
}

// startServer brings a server up the way `navsim chaos` does:
// snapshot.ReadFile, serve.New, an http.Server on a loopback port, then
// polling /v1/readyz until it answers 200.
func startServer(w *worker, c *http.Client) (*live, error) {
	setup := w.tr.begin("setup", w.root)
	l := &live{done: make(chan struct{})}
	step := w.tr.begin("snapshot.ReadFile", setup.id)
	snap, err := snapshot.ReadFile(w.snapPath())
	l.load = step.end()
	if err != nil {
		return nil, err
	}
	step = w.tr.begin("serve.New", setup.id)
	srv, err := serve.New(snap, serve.Options{Workers: 2})
	l.build = step.end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if w.tr != nil {
		h = tracedHandler(w.tr, h)
	}
	l.snap, l.srv, l.http, l.base = snap, srv, &http.Server{Handler: h}, "http://"+ln.Addr().String()
	go func() {
		defer close(l.done)
		l.http.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	step = w.tr.begin("serve.ready", setup.id)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, err = fetch(c, w.tr, step.id, request{url: l.base + "/v1/readyz"}, false); err == nil || time.Now().After(deadline) {
			break
		}
	}
	step.end()
	l.setup = setup.end()
	if err != nil {
		l.stop(c)
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return l, nil
}

func (l *live) stop(c *http.Client) {
	l.http.Close()
	<-l.done
	l.srv.Close()
	c.CloseIdleConnections()
}

// setUp starts the server again and again (see moreSetUps) and keeps the
// last one running, reporting the median set-up time, each timed between
// two readings of the core speed; it also returns the snapshot.ReadFile
// times.  The other servers are torn down.
func setUp(w *worker, c *http.Client, g *gauge) (*live, []time.Duration, error) {
	var loads, builds []time.Duration
	var setups []scaled
	var l *live
	for start := time.Now(); w.moreSetUps(len(setups), start); {
		if l != nil {
			l.stop(c)
			l = nil
		}
		settle()
		g.read()
		var err error
		if l, err = startServer(w, c); err != nil {
			return nil, nil, err
		}
		loads, builds = append(loads, l.load), append(builds, l.build)
		setups = append(setups, scaled{l.setup, g.lap()})
	}
	w.res.setScaled("setup_s", median(refSecs(setups)), median(wallSecs(setups)))
	w.res.set("serve.new_s", median(secs(builds)))
	w.res.set("snapshot.load_s", median(secs(loads)))
	return l, loads, nil
}

// tracedHandler records a serve.handler span per request, joined to the
// client span named in the request header.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent: a root span
		tm := tr.begin("serve.handler", parent)
		tm.req = parent
		h.ServeHTTP(rw, r)
		tm.end()
	})
}

// stats is the part of /v1/stats the benchmark reads.
type stats struct {
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Errors   int64 `json:"errors"`
	Approx   int64 `json:"approx_answers"`
}

func serverStats(w *worker, c *http.Client, base string) (stats, error) {
	var st stats
	b, _, err := fetch(c, w.tr, w.root, request{url: base + "/v1/stats"}, true)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// gateDist checks served distances against BFS: perTarget random sources
// for each of targets random targets, one batched request per target.
func gateDist(w *worker, c *http.Client, base string, g *graph.Graph, rng *xrand.RNG, targets, perTarget int) {
	tm := w.tr.begin("gate.dist", w.root)
	defer tm.end()
	var bad int64
	first := ""
	for range targets {
		t := int32(rng.Intn(g.N()))
		want := g.BFS(t)
		pairs := make([][2]int32, perTarget)
		for i := range pairs {
			pairs[i] = [2]int32{int32(rng.Intn(g.N())), t}
		}
		var resp struct {
			Dists []int32 `json:"dists"`
		}
		body, _ := json.Marshal(map[string]any{"pairs": pairs}) // cannot fail on int pairs
		out, _, err := fetch(c, w.tr, tm.id, request{url: base + "/v1/dist", body: body}, true)
		if err == nil {
			err = json.Unmarshal(out, &resp)
		}
		if err == nil && len(resp.Dists) != len(pairs) {
			err = fmt.Errorf("%d answers for %d pairs", len(resp.Dists), len(pairs))
		}
		if err != nil {
			w.res.problem("dist gate: %v", err)
			bad += int64(perTarget)
			continue
		}
		for i, p := range pairs {
			if resp.Dists[i] != want[p[0]] {
				if bad == 0 {
					first = fmt.Sprintf("dist(%d,%d) = %d, BFS says %d", p[0], t, resp.Dists[i], want[p[0]])
				}
				bad++
			}
		}
	}
	if first != "" {
		w.res.problem("dist gate: %d of %d answers differ from BFS, first %s", bad, targets*perTarget, first)
	}
	w.res.ops(int64(targets*perTarget), bad)
}

// gateRoute checks served routes against an in-process route.Greedy replay
// on the same frozen draw, and that no route takes more steps than the
// distance: every greedy hop strictly decreases the distance to the
// target, while long-range links may shortcut it.
func gateRoute(w *worker, c *http.Client, l *live, rng *xrand.RNG, count int) {
	tm := w.tr.begin("gate.route", w.root)
	defer tm.end()
	g, src := l.snap.Graph, l.snap.Source()
	inst, err := l.snap.Schemes[0].Instance(0)
	if err != nil {
		w.res.problem("route gate: %v", err)
		w.res.ops(int64(count), int64(count))
		return
	}
	pairs := randomPairs(rng, g.N(), count)
	var resp struct {
		Results []struct {
			Dist      int32  `json:"dist"`
			Steps     int    `json:"steps"`
			LongLinks int    `json:"long_links"`
			Reached   bool   `json:"reached"`
			Approx    bool   `json:"approx"`
			Error     string `json:"error"`
		} `json:"results"`
	}
	body, _ := json.Marshal(map[string]any{"pairs": pairs}) // cannot fail on int pairs
	out, _, err := fetch(c, w.tr, tm.id, request{url: l.base + "/v1/route", body: body}, true)
	if err == nil {
		err = json.Unmarshal(out, &resp)
	}
	if err == nil && len(resp.Results) != len(pairs) {
		err = fmt.Errorf("%d answers for %d pairs", len(resp.Results), len(pairs))
	}
	if err != nil {
		w.res.problem("route gate: %v", err)
		w.res.ops(int64(count), int64(count))
		return
	}
	scratch, rr := route.NewScratch(g.N()), xrand.New(1)
	var bad int64
	for i, p := range pairs {
		want, err := route.Greedy(g, inst, p[0], p[1], src, rr, route.Options{Scratch: scratch})
		got := resp.Results[i]
		if err != nil || got.Error != "" || got.Approx || !got.Reached || got.Steps > int(got.Dist) ||
			got.Steps != want.Steps || got.LongLinks != want.LongLinksUsed || got.Reached != want.Reached {
			if bad == 0 {
				w.res.problem("route gate: route %d->%d served %+v, replay %+v (%v)", p[0], p[1], got, want, err)
			}
			bad++
		}
	}
	w.res.ops(int64(count), bad)
}

// graphBuild times generating the workload's graph with the seed a
// snapshot build at seed uses.
func graphBuild(w *worker, family string, n int, seed uint64) error {
	tm := w.tr.begin("core.GraphByName", w.root)
	_, err := core.GraphByName(family, n, scenario.GraphSeed(seed, family, n))
	w.res.set("graph.build_s", tm.end().Seconds())
	return err
}

// snapshotLayers splits a load into reading the file and decoding it
// (median of three each), and reports the size of the file and of its
// 2-hop labels.
func snapshotLayers(w *worker, snap *snapshot.Snapshot) error {
	var reads, decodes []time.Duration
	var b []byte
	for range 3 {
		tm := w.tr.begin("os.ReadFile", w.root)
		var err error
		b, err = os.ReadFile(w.snapPath())
		reads = append(reads, tm.end())
		if err != nil {
			return err
		}
		tm = w.tr.begin("snapshot.ReadBytes", w.root)
		_, err = snapshot.ReadBytes(b)
		decodes = append(decodes, tm.end())
		if err != nil {
			return err
		}
	}
	w.res.set("snapshot.bytes", float64(len(b)))
	w.res.set("snapshot.read_io_s", median(secs(reads)))
	w.res.set("snapshot.decode_s", median(secs(decodes)))
	th := snap.TwoHop
	if th == nil {
		return nil
	}
	w.res.set("dist.label_avg", th.AvgLabel())
	w.res.set("dist.label_max", float64(th.MaxLabel()))
	w.res.set("dist.label_bytes", float64(th.MemoryBytes()))
	if th.Packed() {
		order, poff, blob := th.RawPacked()
		tm := w.tr.begin("dist.TwoHopPackedFromRaw", w.root)
		_, err := dist.TwoHopPackedFromRaw(th.N(), order, poff, blob)
		w.res.set("dist.validate_s", tm.end().Seconds())
		return err
	}
	return nil
}

// handlerLayers splits request time into server handler time and the rest
// (transport and client), and returns the handler µs per answered query of
// the throughput segments, whose span ids closed holds.
func handlerLayers(w *worker, samples []sample, closed map[int64]bool, answered float64) float64 {
	spans := w.tr.recorded()
	handler := make(map[int64]float64) // client span id -> handler µs
	client := make(map[int64]span)
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			handler[s.Parent] = float64(s.End-s.Start) / 1e3
		case "http.request":
			client[s.ID] = s
		}
	}
	var open, outside []float64
	for _, s := range samples {
		if h, ok := handler[s.span]; ok && s.ok {
			open = append(open, h)
			cs := client[s.span]
			outside = append(outside, float64(cs.End-cs.Start)/1e3-h)
		}
	}
	var inClosed float64
	for id, cs := range client {
		if closed[cs.Parent] {
			inClosed += handler[id]
		}
	}
	w.res.set("serve.handler_p50_us", median(open))
	w.res.set("serve.handler_p99_us", quantile(open, 0.99))
	w.res.set("serve.outside_p50_us", median(outside))
	return inClosed / answered
}

// sink keeps replayed probe results live so the compiler keeps the calls.
var sink atomic.Int64

// probeNS replays pairs through src, repeating the whole sequence until
// 100ms have passed, and returns the mean ns per probe.
func probeNS(w *worker, name string, src dist.Source, pairs [][2]int32) float64 {
	tm := w.tr.begin(name, w.root)
	reps := 0
	for ; reps == 0 || time.Since(tm.start) < 100*time.Millisecond; reps++ {
		var acc int64
		for _, p := range pairs {
			acc += int64(src.Dist(p[0], p[1]))
		}
		sink.Add(acc)
	}
	return float64(tm.end().Nanoseconds()) / float64(reps*len(pairs))
}

// probeLayers reports the cost of the exact probe sequence on the loaded
// oracle, then labelLayers.
func probeLayers(w *worker, snap *snapshot.Snapshot, pairs [][2]int32) {
	w.res.set("dist.probe_ns", probeNS(w, "dist.replay", snap.Source(), pairs))
	labelLayers(w, snap, pairs)
}

// labelLayers reports the cost of a probe sequence on the unpacked labels
// and the label entries each probe scans.
func labelLayers(w *worker, snap *snapshot.Snapshot, pairs [][2]int32) {
	th := snap.TwoHop
	if th == nil {
		return
	}
	w.res.set("dist.probe_ns_raw", probeNS(w, "dist.replay_raw", th.Unpack(), pairs))
	size := make(map[int32]int)
	label := func(v int32) int {
		if n, ok := size[v]; ok {
			return n
		}
		hubs, _ := th.Label(v)
		size[v] = len(hubs)
		return len(hubs)
	}
	entries := 0
	for _, p := range pairs {
		entries += label(p[0]) + label(p[1])
	}
	w.res.set("dist.label_entries_per_probe", float64(entries)/float64(len(pairs)))
}

// recorder is a dist.Source that records every probe it answers.
type recorder struct {
	src   dist.Source
	pairs [][2]int32
}

func (r *recorder) Dist(u, t graph.NodeID) int32 {
	r.pairs = append(r.pairs, [2]int32{u, t})
	return r.src.Dist(u, t)
}

// counter is an augment.Instance that counts the contacts it draws.
type counter struct {
	inst augment.Instance
	n    int64
}

func (c *counter) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	c.n++
	return c.inst.Contact(u, rng)
}

// routeChunk is how many routes are timed before their recorded probes are
// replayed alone; alternating at this grain lets both timings see the same
// machine, so that their difference, the routing's own time, is meaningful.
const routeChunk = 500

// routeLayers replays routes in process on the frozen draw the server
// routes over: once through counting wrappers for the exact per-route
// work, then timed, alternating chunks of routes with the replay of those
// routes' recorded probes alone.
func routeLayers(w *worker, snap *snapshot.Snapshot, pairs [][2]int32) error {
	g, src := snap.Graph, snap.Source()
	inst, err := snap.Schemes[0].Instance(0)
	if err != nil {
		return err
	}
	scratch, rng := route.NewScratch(g.N()), xrand.New(1)
	rec, cnt := &recorder{src: src}, &counter{inst: inst}
	var steps, long int
	ends := make([]int, len(pairs)) // ends[i]: probes recorded up to route i
	for i, p := range pairs {
		res, err := route.Greedy(g, cnt, p[0], p[1], rec, rng, route.Options{Scratch: scratch})
		if err != nil {
			return err
		}
		steps += res.Steps
		long += res.LongLinksUsed
		ends[i] = len(rec.pairs)
	}
	var greedy, probing time.Duration
	for lo := 0; lo < len(pairs); lo += routeChunk {
		hi := min(lo+routeChunk, len(pairs))
		tm := w.tr.begin("route.Greedy", w.root)
		for _, p := range pairs[lo:hi] {
			if _, err := route.Greedy(g, inst, p[0], p[1], src, rng, route.Options{Scratch: scratch}); err != nil {
				return err
			}
		}
		greedy += tm.end()
		from := 0
		if lo > 0 {
			from = ends[lo-1]
		}
		tm = w.tr.begin("dist.replay", w.root)
		var acc int64
		for _, q := range rec.pairs[from:ends[hi-1]] {
			acc += int64(src.Dist(q[0], q[1]))
		}
		sink.Add(acc)
		probing += tm.end()
	}
	routes := float64(len(pairs))
	probes := float64(len(rec.pairs)) / routes
	w.res.set("route.greedy_us", float64(greedy.Microseconds())/routes)
	w.res.set("route.self_us", float64((greedy-probing).Microseconds())/routes)
	w.res.set("dist.probe_ns", float64(probing.Nanoseconds())/float64(len(rec.pairs)))
	w.res.set("route.probes_per_route", probes)
	w.res.set("route.steps_per_route", float64(steps)/routes)
	w.res.set("route.long_links_per_route", float64(long)/routes)
	w.res.set("augment.contacts_per_route", float64(cnt.n)/routes)
	labelLayers(w, snap, rec.pairs)
	return nil
}
