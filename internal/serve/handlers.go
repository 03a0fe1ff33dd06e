package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"time"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/route"
)

// httpError writes a JSON error body and bumps the error counter.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed answers 429 with a Retry-After hint: the bounded queue was full and
// this request was dropped at the door instead of parked.  Clients with
// retry enabled (loadgen's -retries) back off on exactly this signal.
func (s *Server) shedRequest(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	s.httpError(w, http.StatusTooManyRequests, "overloaded: worker queue full, retry later")
}

// timedOut answers a request past its deadline: a counted 503.
func (s *Server) timedOut(w http.ResponseWriter) {
	s.timeouts.Add(1)
	s.httpError(w, http.StatusServiceUnavailable, "request timed out")
}

// poolError maps a TryDo failure to an HTTP answer.  A single GET
// /v1/dist degrades on ErrOverloaded instead of coming here.
func (s *Server) poolError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.shedRequest(w)
	case errors.Is(err, ErrPanicked):
		s.httpError(w, http.StatusInternalServerError, "worker panicked")
	case errors.Is(err, ErrExpired), errors.Is(err, ErrTimedOut):
		s.timedOut(w)
	default:
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// nodeParam parses one node-id query parameter and range-checks it.
func (s *Server) nodeParam(q url.Values, name string) (graph.NodeID, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if v < 0 || v >= int64(s.g.N()) {
		return 0, fmt.Errorf("parameter %q = %d out of range [0,%d)", name, v, s.g.N())
	}
	return graph.NodeID(v), nil
}

// handleLivez is pure liveness: 200 whenever the process can answer HTTP
// at all, draining or not.  Orchestrators use it to decide restarts; they
// use readyz to decide routing.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "alive"})
}

// handleHealthz is readiness (also mounted at /v1/readyz): 503 while the
// server drains so load balancers stop sending traffic, 200 with snapshot
// identity and degradation state otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, map[string]any{
		"status":      "ok",
		"family":      s.snap.Meta.Family,
		"graph":       s.g.Name(),
		"n":           s.g.N(),
		"m":           s.g.M(),
		"oracle":      s.oracle(),
		"degraded":    s.degradedNow(),
		"quarantined": s.snap.Quarantined,
		"uptime_s":    time.Since(s.start).Seconds(),
	})
}

// handleDist answers distance queries: GET for one (u, v) pair, POST for a
// batch.  A batch runs as a single pool task, which is what lets a one-CPU
// deployment amortise HTTP overhead across thousands of oracle lookups per
// request.  Under overload a single GET is answered inline on the handler
// goroutine, no worker needed: exactly from the O(1) tier when the
// snapshot has one, else from the landmark tier beneath the field cache
// (marked approx), else it is shed.  Batches are shed.
func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		u, err := s.nodeParam(q, "u")
		if err == nil {
			var v graph.NodeID
			v, err = s.nodeParam(q, "v")
			if err == nil {
				var d int32
				var approx bool
				poolErr := s.pool.TryDo(r.Context(), func(*Shard) { d, approx = s.distance(u, v) })
				if errors.Is(poolErr, ErrOverloaded) {
					// Answer here instead of shedding when it is cheap: an
					// O(1)-tier probe is exact and costs less than k
					// landmark reads; a landmark bound costs O(k).
					switch {
					case s.src != nil:
						d = s.src.Dist(u, v)
					case s.landmark != nil:
						d, approx = s.landmark.Dist(u, v), true
					default:
						s.shedRequest(w)
						return
					}
				} else if poolErr != nil {
					s.poolError(w, poolErr)
					return
				}
				s.distQueries.Add(1)
				if approx {
					s.approxAnswers.Add(1)
				}
				buf := distBufs.Get().(*distBuf)
				buf.b = appendDistOne(buf.b[:0], u, v, d, approx)
				writeAnswer(w, buf.b)
				distBufs.Put(buf)
				return
			}
		}
		s.httpError(w, http.StatusBadRequest, "%v", err)
	case http.MethodPost:
		buf := distBufs.Get().(*distBuf)
		defer distBufs.Put(buf)
		pairs, ok := s.readDistBatch(w, r, buf)
		if !ok {
			return
		}
		if len(pairs) == 0 || len(pairs) > s.opts.MaxBatch {
			s.httpError(w, http.StatusBadRequest, "batch of %d pairs out of range [1,%d]", len(pairs), s.opts.MaxBatch)
			return
		}
		n := int32(s.g.N())
		for i, p := range pairs {
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				s.httpError(w, http.StatusBadRequest, "pair %d = (%d,%d) out of range [0,%d)", i, p[0], p[1], n)
				return
			}
		}
		dists := slices.Grow(buf.dists[:0], len(pairs))[:len(pairs)]
		buf.dists = dists
		// approx marks the batch as served from the approximate tier:
		// every dist is a landmark upper bound, not an exact distance.
		var approx bool
		err := s.pool.TryDo(r.Context(), func(*Shard) {
			if th, ok := s.src.(*dist.TwoHop); ok {
				// Staged: the batch's label reads overlap.
				th.DistBatch(pairs, dists)
				return
			}
			for i, p := range pairs {
				var a bool
				dists[i], a = s.distance(p[0], p[1])
				approx = approx || a
			}
		})
		if err != nil {
			if errors.Is(err, ErrTimedOut) {
				*buf = distBuf{} // the task still uses pairs and dists: leave them to it
			}
			s.poolError(w, err)
			return
		}
		s.distQueries.Add(int64(len(pairs)))
		if approx {
			s.approxAnswers.Add(int64(len(pairs)))
		}
		buf.b = appendDistBatch(buf.b[:0], dists, approx)
		writeAnswer(w, buf.b)
	default:
		s.httpError(w, http.StatusMethodNotAllowed, "use GET for single queries, POST for batches")
	}
}

type routeResult struct {
	S         graph.NodeID `json:"s"`
	T         graph.NodeID `json:"t"`
	Dist      int32        `json:"dist"`
	Steps     int          `json:"steps"`
	LongLinks int          `json:"long_links"`
	Reached   bool         `json:"reached"`
	// Approx marks a degraded answer: the distance is a landmark bound
	// or the steering was approximate.
	Approx bool           `json:"approx,omitempty"`
	Error  string         `json:"error,omitempty"`
	Path   []graph.NodeID `json:"path,omitempty"`
}

type routeBatchRequest struct {
	Pairs  [][2]int32 `json:"pairs"`
	Scheme string     `json:"scheme"`
	Draw   int        `json:"draw"`
	Trace  bool       `json:"trace"`
}

// routeOne runs one greedy trial on the frozen draw.  Routing errors
// (disconnected pair, for instance) are reported per-result, not as HTTP
// failures, so a batch with one unreachable pair still returns the other
// answers.  A routed pair's distance is the one the route steered by, so
// it comes from the same tier read.
func (s *Server) routeOne(sh *Shard, inst routeInstance, from, to graph.NodeID, trace bool) routeResult {
	src, approx := s.targetSource(to)
	res := routeResult{S: from, T: to, Approx: approx}
	// A frozen table ignores the rng: the draw happened at snapshot time.
	out, err := route.Greedy(s.g, inst.inst, from, to, src,
		nil, route.Options{Trace: trace, Scratch: sh.Scratch})
	if err != nil {
		d, dApprox := s.distance(from, to)
		res.Dist, res.Approx = d, approx || dApprox
		res.Error = err.Error()
		return res
	}
	res.Dist = out.Dist
	res.Steps = out.Steps
	res.LongLinks = out.LongLinksUsed
	res.Reached = out.Reached
	res.Path = out.Path
	if res.Approx {
		s.approxAnswers.Add(1)
	}
	return res
}

// routeInstance is a resolved (scheme, draw) pair: the frozen contact
// table to route over, with the names echoed back in responses.
type routeInstance struct {
	scheme string
	draw   int
	inst   *augment.Static
}

// frozenInstance resolves a scheme name ("" = first packed) and draw index
// against the tables validated in New, so the request path never
// re-validates a contact table.
func (s *Server) frozenInstance(scheme string, draw int) (routeInstance, error) {
	st, err := s.snap.Scheme(scheme)
	if err != nil {
		return routeInstance{}, err
	}
	insts := s.tables[st.Name]
	if draw < 0 || draw >= len(insts) {
		return routeInstance{}, fmt.Errorf("scheme %s has %d draws, requested %d", st.Name, len(insts), draw)
	}
	return routeInstance{scheme: st.Name, draw: draw, inst: insts[draw]}, nil
}

// handleRoute runs greedy routing trials over a frozen augmentation: GET
// for one (s, t) pair, POST for a batch sharing one scheme/draw.  Routing
// needs a worker's scratch, so overload sheds (429) rather than degrading
// inline.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		from, err := s.nodeParam(q, "s")
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		to, err := s.nodeParam(q, "t")
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		draw := 0
		if raw := q.Get("draw"); raw != "" {
			if draw, err = strconv.Atoi(raw); err != nil {
				s.httpError(w, http.StatusBadRequest, "parameter draw: %v", err)
				return
			}
		}
		inst, err := s.frozenInstance(q.Get("scheme"), draw)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		trace := q.Get("trace") == "1" || q.Get("trace") == "true"
		var res routeResult
		poolErr := s.pool.TryDo(r.Context(), func(sh *Shard) {
			res = s.routeOne(sh, inst, from, to, trace)
		})
		if poolErr != nil {
			s.poolError(w, poolErr)
			return
		}
		s.routeQueries.Add(1)
		writeJSON(w, map[string]any{"scheme": inst.scheme, "draw": inst.draw, "result": res})
	case http.MethodPost:
		var req routeBatchRequest
		body := http.MaxBytesReader(w, r.Body, batchBodyLimit(s.opts.MaxBatch))
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.badBody(w, err)
			return
		}
		if len(req.Pairs) == 0 || len(req.Pairs) > s.opts.MaxBatch {
			s.httpError(w, http.StatusBadRequest, "batch of %d pairs out of range [1,%d]", len(req.Pairs), s.opts.MaxBatch)
			return
		}
		n := int32(s.g.N())
		for i, p := range req.Pairs {
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				s.httpError(w, http.StatusBadRequest, "pair %d = (%d,%d) out of range [0,%d)", i, p[0], p[1], n)
				return
			}
		}
		inst, err := s.frozenInstance(req.Scheme, req.Draw)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		results := make([]routeResult, len(req.Pairs))
		poolErr := s.pool.TryDo(r.Context(), func(sh *Shard) {
			for i, p := range req.Pairs {
				results[i] = s.routeOne(sh, inst, p[0], p[1], req.Trace)
			}
		})
		if poolErr != nil {
			s.poolError(w, poolErr)
			return
		}
		s.routeQueries.Add(int64(len(req.Pairs)))
		writeJSON(w, map[string]any{"scheme": inst.scheme, "draw": inst.draw, "results": results})
	default:
		s.httpError(w, http.StatusMethodNotAllowed, "use GET for single trials, POST for batches")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	schemes := make([]string, 0, len(s.snap.Schemes))
	for i := range s.snap.Schemes {
		schemes = append(schemes, s.snap.Schemes[i].Name)
	}
	tier, _ := s.tier()
	landmarks := 0
	if s.landmark != nil {
		landmarks = s.landmark.K()
	}
	writeJSON(w, map[string]any{
		"family":         s.snap.Meta.Family,
		"graph":          s.g.Name(),
		"n":              s.g.N(),
		"m":              s.g.M(),
		"seed":           s.snap.Meta.Seed,
		"oracle":         s.oracle(),
		"tier":           tier,
		"degraded":       s.degradedNow(),
		"quarantined":    s.snap.Quarantined,
		"draining":       s.draining.Load(),
		"schemes":        schemes,
		"workers":        s.opts.Workers,
		"queue_depth":    s.opts.QueueDepth,
		"landmarks":      landmarks,
		"breakers_open":  s.pool.TrippedBreakers(),
		"uptime_s":       time.Since(s.start).Seconds(),
		"requests":       s.requests.Load(),
		"dist_queries":   s.distQueries.Load(),
		"route_queries":  s.routeQueries.Load(),
		"errors":         s.errors.Load(),
		"shed":           s.shed.Load(),
		"panics":         s.panics.Load(),
		"approx_answers": s.approxAnswers.Load(),
		"timeouts":       s.timeouts.Load(),
		"peak_rss_bytes": peakRSSBytes(),
		"goroutines":     runtime.NumGoroutine(),
		"cached_fields":  s.fields.Len(),
	})
}
