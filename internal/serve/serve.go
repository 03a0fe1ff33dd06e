// Package serve is the query front-end of the routing service: it takes a
// loaded snapshot (see internal/snapshot) and exposes its distance oracle
// and frozen augmented graphs over HTTP/JSON, turning the repository's
// in-process experiment artefacts into a standing service — build once,
// snapshot, serve many.
//
// Endpoints (all JSON):
//
//	GET  /v1/livez              liveness: 200 while the process serves
//	GET  /v1/readyz             readiness: 503 while draining
//	GET  /v1/healthz            readiness plus snapshot identity
//	GET  /v1/dist?u=&v=         one distance
//	POST /v1/dist               {"pairs":[[u,v],...]} batched distances
//	GET  /v1/route?s=&t=        one greedy routing trial (scheme=, draw=,
//	                            trace=1 optional)
//	POST /v1/route              {"pairs":[[s,t],...],...} batched trials
//	GET  /v1/stats              counters, snapshot meta, peak RSS
//
// A batch body may hold at most 64 bytes a pair of MaxBatch plus 4 KiB
// (516 KiB at the default 8192), room for an indented batch at the int32
// extremes; a longer body is answered 413 before it is decoded.  A dist
// batch in the canonical shape above is decoded without reflection, and
// every dist answer is written byte for byte as encoding/json would; see
// distwire.go.
//
// Queries dispatch onto a fixed pool of workers, each owning a
// route.Scratch (the sim.Engine worker discipline), so the hot path is
// lock-free and allocation-free per routing hop.  Distances come
// from the snapshot's O(1) tier — the analytic metric or the packed 2-hop
// labels — and fall back down the degradation ladder (BFS field cache,
// then approximate landmark bounds) when that tier is missing or
// quarantined and fields are unaffordable; see degrade.go.  Landmarks
// exist only beneath the field cache: a snapshot with an exact tier never
// builds them, so set-up is the snapshot read and little else.  That read
// (snapshot.ReadBytes) keeps every core busy: sections are checked
// concurrently, each one checksummed (CRC-32C in files written today,
// a small share of the read) and then parsed, and the graph's CSR checks
// and the 2-hop label walk split into node ranges on GOMAXPROCS
// goroutines, so the read is bound by its total CPU work, most of it the
// 2-hop label walk.  Routing uses the frozen contact tables, so
// every healthy /v1/route answer is fully deterministic and reproducible
// from the snapshot file alone; degraded answers carry "approx": true.
//
// The serving stack is built to stay up under faults: the task queue is
// bounded and overflows shed with 429 + Retry-After rather than queueing
// without bound, a request past its deadline gets a counted 503, worker
// panics are recovered and counted, and a shard whose tasks keep dying is
// circuit-broken — quarantined, then probed back in (pool.go,
// breaker.go).  The frozen tables never change, so a quarantine leaves
// every other shard's answers byte-identical.  The fault layer
// (internal/fault) injects the corresponding failures deterministically;
// a nil injector costs nothing.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/fault"
	"navaug/internal/graph"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// Options configures a Server.
type Options struct {
	// Workers is the query pool size; 0 means one per CPU.
	Workers int
	// QueueDepth bounds the worker task queue; submissions beyond it are
	// shed with 429.  Default max(16, 4×Workers).
	QueueDepth int
	// RequestTimeout is each request's deadline (default 2s): past it,
	// queued, running or storm-delayed, the request gets a counted 503.
	RequestTimeout time.Duration
	// MaxBatch caps the pairs accepted by the batched endpoints
	// (default 8192): one batch is one pool task, so the cap bounds how
	// long a single request can monopolise a worker.
	MaxBatch int
	// FieldCacheSize is the per-target BFS field cache capacity used only
	// when the snapshot packs no O(1) distance tier (default 64 fields).
	FieldCacheSize int
	// Landmarks is the landmark count of the approximate degraded tier
	// beneath the BFS field cache (default 16; negative disables the tier,
	// and with it the approximate rung of the ladder).  The tier is built
	// at startup only when the snapshot has no exact O(1) tier — none was
	// packed, or it was quarantined at load — since otherwise no query
	// ever reaches it.
	Landmarks int
	// BreakerThreshold is the consecutive-panic count that trips a shard's
	// circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped shard stays quarantined before
	// a half-open probe (default 250ms).
	BreakerCooldown time.Duration
	// Faults, when non-nil, threads a deterministic fault-injection
	// schedule through the stack; nil (the default) injects nothing and
	// costs nothing on the hot path.
	Faults *fault.Injector
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
		if o.QueueDepth < 16 {
			o.QueueDepth = 16
		}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8192
	}
	if o.FieldCacheSize <= 0 {
		o.FieldCacheSize = 64
	}
	if o.Landmarks == 0 {
		o.Landmarks = 16
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
}

// Server answers distance and routing queries for one snapshot.
type Server struct {
	snap   *snapshot.Snapshot
	g      *graph.Graph
	src    dist.Source      // O(1) tier; nil → ladder below it
	fields *dist.FieldCache // BFS field tier, always non-nil
	// landmark is the approximate bottom tier, nil when disabled or when
	// src is set.
	landmark *dist.LandmarkOracle
	// tables holds the frozen augment tables per scheme and draw,
	// validated once at construction and shared read-only by every worker.
	tables map[string][]*augment.Static
	pool   *pool
	opts   Options
	start  time.Time
	mux    *http.ServeMux

	draining atomic.Bool

	requests      atomic.Int64
	distQueries   atomic.Int64
	routeQueries  atomic.Int64
	errors        atomic.Int64
	shed          atomic.Int64
	panics        atomic.Int64
	approxAnswers atomic.Int64
	timeouts      atomic.Int64
}

// New builds a Server over a loaded snapshot.  The snapshot must contain a
// graph (snapshot.ReadBytes guarantees it); everything else is optional
// and degrades gracefully: no O(1) tier → the ladder's lower rungs, no
// frozen schemes → /v1/route returns an explanatory error.  Quarantined
// sections (from snapshot.ReadBytesTolerant) simply leave their tier
// absent — the server starts degraded instead of not at all.
func New(snap *snapshot.Snapshot, opts Options) (*Server, error) {
	if snap == nil || snap.Graph == nil {
		return nil, fmt.Errorf("serve: snapshot has no graph")
	}
	opts.fill()
	if err := opts.Faults.CheckShards(opts.Workers); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	tables := make(map[string][]*augment.Static, len(snap.Schemes))
	for i := range snap.Schemes {
		st := &snap.Schemes[i]
		for k := range st.Draws {
			inst, err := st.Instance(k)
			if err != nil {
				return nil, fmt.Errorf("serve: scheme %s draw %d: %w", st.Name, k, err)
			}
			static, ok := inst.(*augment.Static)
			if !ok {
				return nil, fmt.Errorf("serve: scheme %s draw %d is not a frozen table", st.Name, k)
			}
			tables[st.Name] = append(tables[st.Name], static)
		}
	}
	s := &Server{
		snap:   snap,
		g:      snap.Graph,
		src:    snap.Source(),
		fields: dist.NewFieldCache(snap.Graph, opts.FieldCacheSize),
		tables: tables,
		opts:   opts,
		start:  time.Now(),
	}
	if opts.Landmarks > 0 && snap.Graph.N() > 0 && s.src == nil {
		// Only the field tier can fall to landmarks; an exact O(1) tier
		// answers every query itself.  A fixed seed keeps the landmark
		// choice, and so every landmark answer, reproducible from the
		// snapshot alone.
		s.landmark = dist.NewLandmarkOracle(snap.Graph, opts.Landmarks, xrand.New(1).Split())
	}
	s.pool = newPool(poolConfig{
		n:                snap.Graph.N(),
		workers:          opts.Workers,
		queue:            opts.QueueDepth,
		inj:              opts.Faults,
		breakerThreshold: opts.BreakerThreshold,
		breakerCooldown:  opts.BreakerCooldown,
		onPanic:          func(*Shard) { s.panics.Add(1) },
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/livez", s.handleLivez)
	s.mux.HandleFunc("/v1/readyz", s.handleHealthz)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/dist", s.handleDist)
	s.mux.HandleFunc("/v1/route", s.handleRoute)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s, nil
}

// Handler returns the full middleware chain: counting, the request
// deadline and injected request-level latency, then the mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		if d := s.opts.Faults.RequestDelay(); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				s.timedOut(w)
				return
			}
		}
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// BeginDrain flips the server to draining: /v1/readyz (and /v1/healthz)
// answer 503 so load balancers stop routing here, while in-flight and
// already-accepted requests keep being served.  The caller then runs its
// http.Server.Shutdown, which waits for those in-flight requests.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the worker pool.  In-flight pool tasks finish first.
func (s *Server) Close() { s.pool.Close() }

// oracle names the snapshot's packed O(1) distance tier for /v1/stats and
// logs ("field-cache" when it packs none — or when the tier was
// quarantined at load).
func (s *Server) oracle() string {
	switch {
	case s.snap.Metric != nil:
		return "analytic"
	case s.snap.TwoHop != nil:
		return "twohop"
	default:
		return "field-cache"
	}
}

// memPressure reports simulated memory pressure from the fault schedule.
func (s *Server) memPressure() bool { return s.opts.Faults.MemoryPressure() }

// tier resolves the ladder for the current instant.
func (s *Server) tier() (string, bool) {
	exact := ""
	if s.src != nil {
		exact = s.oracle()
	}
	return selectTier(exact, !s.memPressure(), s.landmark != nil)
}

// degradedNow reports whether answers may currently deviate from the
// healthy, snapshot-frozen ones: a section was quarantined at load, or the
// ladder is on its approximate rung.
func (s *Server) degradedNow() bool {
	if len(s.snap.Quarantined) > 0 {
		return true
	}
	_, approx := s.tier()
	return approx
}

// distance answers one distance query through the current tier; approx is
// true when the answer is a landmark upper bound rather than exact.
func (s *Server) distance(u, v graph.NodeID) (int32, bool) {
	if s.src != nil {
		return s.src.Dist(u, v), false
	}
	if _, approx := s.tier(); approx {
		return s.landmark.Dist(u, v), true
	}
	return s.fields.Field(v)[u], false
}

// targetSource returns a dist.Source rooted at t for routing, with the
// same approx contract as distance.
func (s *Server) targetSource(t graph.NodeID) (dist.Source, bool) {
	if s.src != nil {
		return s.src, false
	}
	if _, approx := s.tier(); approx {
		return s.landmark, true
	}
	return dist.NewField(s.fields.Field(t)), false
}
