// Package route implements the oblivious greedy routing process of the
// paper: at every intermediate node the message is forwarded to the
// neighbour (local neighbours plus the node's own long-range contact) that
// is closest to the target according to distances in the underlying graph.
//
// Distances to the target are read through a dist.Source — either an
// analytic closed-form metric (structured families, O(1) per query with no
// per-target state at all, which is what permits million-node graphs) or a
// BFS distance field wrapped via dist.NewField (the exact fallback for
// unstructured graphs).
//
// Long-range contacts are drawn lazily and memoised per trial so that each
// node keeps one consistent contact while only paying for the nodes
// actually visited.  The memo lives in a Scratch — a dense epoch-marked
// buffer that resets in O(1) — so a worker that reuses one Scratch across
// trials routes without any per-trial allocation.
//
// When the source is an exact 2-hop oracle (*dist.TwoHop), each route pins
// it to the target in the Scratch (dist.TwoHopPin): one O(|L_t|) scatter
// per route, after which every probe scans only the neighbour's label.
// Answers are identical to the unpinned oracle's, so routes are too.  Over
// the pinned oracle, Greedy also stops each hop's neighbour scan at the
// first neighbour one hop closer to the target (see greedyStep).
package route

import (
	"fmt"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// Result describes a single greedy routing trial.
type Result struct {
	// Steps is the number of hops taken (0 when source == target).
	Steps int
	// LongLinksUsed counts the hops that traversed a long-range link.
	LongLinksUsed int
	// Reached reports whether the target was reached within the step cap.
	Reached bool
	// Dist is dist(s, t) as the steering source reports it (an upper
	// bound under approximate steering).
	Dist int32
	// Path is the visited node sequence including source and target.  It is
	// only populated when tracing is requested.
	Path []graph.NodeID
}

// Scratch is reusable per-trial state for routing: the per-node contact
// memo, epoch-marked so a reset costs O(1), and the 2-hop target pin.  A
// Scratch is not safe for concurrent use; keep one per worker and pass it
// through Options.  Reuse across trials is what makes a routing trial
// allocation-free.
type Scratch struct {
	memo *sampler.EpochMemo
	// pin is allocated the first time a route steers by a *dist.TwoHop.
	pin *dist.TwoHopPin
	// nd holds the current node's neighbour distances for the lookahead.
	nd []int32
}

// NewScratch returns a Scratch for routing on graphs with n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{memo: sampler.NewEpochMemo(n)}
}

// contact returns the memoised long-range contact of u, drawing it on
// first use within the current trial.
func (s *Scratch) contact(inst augment.Instance, u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	if c, ok := s.memo.Get(u); ok {
		return c
	}
	c := inst.Contact(u, rng)
	s.memo.Set(u, c)
	return c
}

// steer returns the source a route to t probes: a 2-hop oracle pinned to
// t in the scratch, or src itself.  Pin clears whatever an earlier route
// left behind, finished or not.
func (s *Scratch) steer(src dist.Source, t graph.NodeID) dist.Source {
	th, ok := src.(*dist.TwoHop)
	if !ok {
		return src
	}
	if s.pin == nil {
		s.pin = new(dist.TwoHopPin)
	}
	s.pin.Pin(th, t)
	return s.pin
}

// neighbourDists returns a scratch slice for k neighbour distances.
func (s *Scratch) neighbourDists(k int) []int32 {
	if cap(s.nd) < k {
		s.nd = make([]int32, k)
	}
	return s.nd[:k]
}

// Options tune a routing trial.
type Options struct {
	// MaxSteps caps the number of hops (0 means 4·n + 16, which greedy
	// routing can never legitimately exceed because each hop strictly
	// decreases the distance to the target).
	MaxSteps int
	// Trace records the full visited path in the Result.
	Trace bool
	// Scratch, when non-nil, supplies the reusable trial state; it must have
	// been built for a graph of the same size.  When nil a fresh Scratch is
	// allocated for the trial (convenient, but the hot path — the Monte
	// Carlo worker pool — always passes one per worker).
	Scratch *Scratch
}

// validate checks the endpoints and distance source shared by both routing
// variants, resolves the options and steers: the returned Options always
// carry a reset Scratch and a positive MaxSteps, and the returned source
// is the one the route probes (a *dist.TwoHop pinned to t), through which
// dist(t, t) and dist(s, t) are answered.
func validate(g *graph.Graph, s, t graph.NodeID, src dist.Source, opts Options) (Options, dist.Source, int32, error) {
	n := g.N()
	if int(s) < 0 || int(s) >= n || int(t) < 0 || int(t) >= n {
		return opts, nil, 0, fmt.Errorf("route: endpoints (%d,%d) out of range [0,%d)", s, t, n)
	}
	if src == nil {
		return opts, nil, 0, fmt.Errorf("route: nil distance source")
	}
	// Sources that know their node count (dist.Field, the analytic family
	// metrics) are checked against the graph up front: a mis-sized source
	// would otherwise index out of range (fields) or silently report wrong
	// distances (metrics) mid-route.
	if s, ok := src.(interface{ N() int }); ok && s.N() != n {
		return opts, nil, 0, fmt.Errorf("route: distance source covers %d nodes, graph has %d", s.N(), n)
	}
	if opts.Scratch == nil {
		opts.Scratch = NewScratch(n)
	}
	// The pin is sized by the oracle, not the scratch, so steering before
	// the scratch's size is checked is safe and keeps the error order.
	src = opts.Scratch.steer(src, t)
	if src.Dist(t, t) != 0 {
		return opts, nil, 0, fmt.Errorf("route: distance source is not rooted at target %d", t)
	}
	dst := src.Dist(s, t)
	if dst == graph.Unreachable {
		return opts, nil, 0, fmt.Errorf("route: target %d unreachable from source %d", t, s)
	}
	if opts.Scratch.memo.Len() != n {
		return opts, nil, 0, fmt.Errorf("route: scratch was built for %d nodes, graph has %d", opts.Scratch.memo.Len(), n)
	}
	opts.Scratch.memo.Reset()
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 4*n + 16
	}
	return opts, src, dst, nil
}

// Greedy routes a message from s to t on graph g augmented by the given
// instance, steering by src.Dist(v, t) = dist_G(v, t) — an analytic metric
// or a BFS field wrapped with dist.NewField.  The rng drives the lazy
// long-range contact draws.  It returns an error for invalid endpoints, a
// source not rooted at the target or with an unreachable source node, or a
// mis-sized scratch.
func Greedy(g *graph.Graph, inst augment.Instance, s, t graph.NodeID, src dist.Source, rng *xrand.RNG, opts Options) (Result, error) {
	opts, src, curDist, err := validate(g, s, t, src, opts)
	if err != nil {
		return Result{}, err
	}
	scratch := opts.Scratch
	res := Result{Dist: curDist}
	if opts.Trace {
		res.Path = append(res.Path, s)
	}
	cur := s
	for cur != t {
		if res.Steps >= opts.MaxSteps {
			return res, nil // Reached stays false
		}
		next, nextDist, viaLong := greedyStep(g, inst, scratch, cur, curDist, t, src, rng, nil)
		if next == cur {
			// No neighbour (nor the contact) improves on cur.  With an
			// exact distance source this cannot happen on a reachable
			// pair — some neighbour lies on a shortest path — so this is
			// the approximate-steering case (landmark upper bounds can
			// plateau).  Burning the remaining step budget in place would
			// change nothing; stop with Reached false.
			return res, nil
		}
		if viaLong {
			res.LongLinksUsed++
		}
		cur, curDist = next, nextDist
		res.Steps++
		if opts.Trace {
			res.Path = append(res.Path, cur)
		}
	}
	res.Reached = true
	return res, nil
}

// greedyStep picks the neighbour of cur (including its long-range contact)
// closest to the target, given curDist = src.Dist(cur, t), and returns it
// with its distance; ties prefer local links and then lower node ids,
// which keeps the process deterministic given the drawn contacts.  When nd
// is non-nil it receives each neighbour's distance, in Neighbors order.
//
// When src is a pinned 2-hop oracle and nd is nil, the neighbour scan stops
// at the first neighbour at curDist-1.  The oracle is exact for g (sim,
// serve and core only ever pair a graph with its own labels), so no
// neighbour is closer than that floor; neighbour lists are strictly
// increasing and ties go to the lower id, so the full scan would pick this
// same neighbour.  The contact is drawn and probed after the scan and wins
// only when strictly below the floor.  Sources that may not be exact
// (landmark bounds, fields and metrics, a DynTwoHop with debt) always scan
// every neighbour.
func greedyStep(g *graph.Graph, inst augment.Instance, scratch *Scratch, cur graph.NodeID, curDist int32, t graph.NodeID, src dist.Source, rng *xrand.RNG, nd []int32) (graph.NodeID, int32, bool) {
	best := cur
	bestDist := curDist
	viaLong := false
	floor := graph.Unreachable
	if _, exact := src.(*dist.TwoHopPin); exact && nd == nil {
		floor = curDist - 1
	}
	for i, v := range g.Neighbors(cur) {
		d := src.Dist(v, t)
		if nd != nil {
			nd[i] = d
		}
		if d == graph.Unreachable {
			continue
		}
		if d < bestDist || (d == bestDist && v < best) {
			best = v
			bestDist = d
			viaLong = false
			if d == floor {
				break
			}
		}
	}
	if c := scratch.contact(inst, cur, rng); c != cur {
		d := src.Dist(c, t)
		if d != graph.Unreachable && d < bestDist {
			best = c
			bestDist = d
			viaLong = true
		}
	}
	return best, bestDist, viaLong
}

// GreedyWithLookahead is the "know thy neighbour's neighbour" extension
// mentioned in the paper's related work [16]: the routing decision also
// considers the long-range contacts of the current node's local neighbours
// (one hop of lookahead), forwarding towards the neighbour whose own contact
// is closest to the target when that beats every direct option.  The
// traversal still advances one edge per step, so the step count remains
// comparable with plain greedy routing.
func GreedyWithLookahead(g *graph.Graph, inst augment.Instance, s, t graph.NodeID, src dist.Source, rng *xrand.RNG, opts Options) (Result, error) {
	opts, src, curDist, err := validate(g, s, t, src, opts)
	if err != nil {
		return Result{}, err
	}
	scratch := opts.Scratch
	res := Result{Dist: curDist}
	if opts.Trace {
		res.Path = append(res.Path, s)
	}
	cur := s
	for cur != t {
		if res.Steps >= opts.MaxSteps {
			return res, nil
		}
		// Direct greedy candidate.
		nbrs := g.Neighbors(cur)
		nd := scratch.neighbourDists(len(nbrs))
		direct, directDist, viaLong := greedyStep(g, inst, scratch, cur, curDist, t, src, rng, nd)
		// Lookahead: neighbour whose own long-range contact is closest.
		bestVia, bestViaDist, bestViaSelf := graph.NodeID(-1), int32(-1), int32(-1)
		for i, v := range nbrs {
			if nd[i] == graph.Unreachable {
				continue
			}
			c := scratch.contact(inst, v, rng)
			d := src.Dist(c, t)
			if d == graph.Unreachable {
				continue
			}
			if bestVia == -1 || d < bestViaDist {
				bestVia, bestViaDist, bestViaSelf = v, d, nd[i]
			}
		}
		next, nextDist, nextViaLong := direct, directDist, viaLong
		// Move towards the lookahead neighbour only when its contact is
		// strictly better than anything reachable directly (directDist <=
		// curDist, so also than staying put); the hop itself is a local link.
		if bestVia != -1 && bestViaDist < directDist {
			next, nextDist, nextViaLong = bestVia, bestViaSelf, false
		}
		if next == cur {
			return res, nil // stuck under approximate steering; see Greedy
		}
		if nextViaLong {
			res.LongLinksUsed++
		}
		cur, curDist = next, nextDist
		res.Steps++
		if opts.Trace {
			res.Path = append(res.Path, cur)
		}
	}
	res.Reached = true
	return res, nil
}
