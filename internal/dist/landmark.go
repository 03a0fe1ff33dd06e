package dist

import (
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// LandmarkOracle is an approximate distance oracle built from k landmark
// BFS trees.  For a query (u, v) every landmark l supplies the triangle
// bounds
//
//	|d(l,u) − d(l,v)|  ≤  d(u,v)  ≤  d(l,u) + d(l,v)
//
// and the oracle returns the tightest of each across landmarks.
//
// Approximation guarantee (pinned by the disttest conformance suite and
// TestLandmarkExactAtLandmarks): for every pair, Bounds returns
// lower ≤ d(u,v) ≤ upper, and Dist returns the upper bound — never an
// underestimate.  Both bounds are exact (equal to d(u,v)) whenever some
// landmark lies on a shortest u–v path; in particular whenever u or v *is*
// a landmark.  There is no bounded multiplicative error in general — a
// pair far from every landmark can have upper ≫ d(u,v) — which is why the
// oracle must not serve routing invariants that need exact distances
// (greedy progress checks); exact tiers (APSP, TwoHop, analytic metrics,
// BFS fields) exist for that.  The first
// landmark is drawn uniformly; the rest follow the farthest-point rule
// (maximise the distance to the landmarks chosen so far, ties to the
// smallest node id), which spreads the sketch over the graph and
// guarantees every component holding a landmark once k reaches the
// component count.
//
// Preprocessing is one renumbering pass plus k−1 BFS traversals.  The pass
// is a BFS from the first landmark over the graph itself (unreached
// components appended after it, in id order); it yields the first
// landmark's distances and a CSR copy of the graph with the nodes
// renumbered in visit order, on which the other k−1 BFS runs.  Nodes close
// in the graph sit close in memory there, so those traversals mostly hit
// cache.  The copy and the build scratch, O(n + m) in all, are dropped
// once the build returns; the oracle keeps k·n int32 distances, stored in
// the renumbered order, plus the n-entry map into it.  Queries cost O(k).
// The oracle is immutable after construction and safe for concurrent
// readers.
type LandmarkOracle struct {
	n         int32
	landmarks []graph.NodeID
	pos       []int32 // pos[v] = v's index in the renumbered order
	rows      []int32 // row-major k×n, rows[i*n+pos[v]] = dist(landmarks[i], v)
}

// infDist stands in for "unreached" during farthest-point selection so
// that nodes in untouched components are preferred as the next landmark.
const infDist int32 = 1 << 30

// NewLandmarkOracle builds an oracle with k landmarks (clamped to [1, n]).
// The rng drives only the choice of the first landmark, so the whole
// construction is deterministic for a fixed seed.
func NewLandmarkOracle(g *graph.Graph, k int, rng *xrand.RNG) *LandmarkOracle {
	n := g.N()
	o := &LandmarkOracle{n: int32(n)}
	if n == 0 {
		return o
	}
	k = max(1, min(k, n))
	o.rows = make([]int32, k*n)
	for i := range o.rows {
		o.rows[i] = graph.Unreachable
	}
	first := graph.NodeID(rng.Intn(n))
	c, pos := renumberBFS(g, first, o.rows[:n])
	o.pos = pos
	o.landmarks = append(make([]graph.NodeID, 0, k), first)
	queue := make([]int32, n)
	// minDist[i] = distance from the node at index i to the nearest
	// landmark so far.
	minDist := make([]int32, n)
	for i := range minDist {
		minDist[i] = infDist
	}
	for l := 1; l < k; l++ {
		// Farthest-point rule for the next landmark; unreached nodes count
		// as infinitely far, so fresh components are claimed first.  Ties
		// go to the smallest original id, not the smallest index.
		best, next := int32(-1), int32(0)
		for i, d := range o.rows[(l-1)*n : l*n] {
			if d == graph.Unreachable {
				d = infDist
			}
			md := min(minDist[i], d)
			minDist[i] = md
			if md > best || md == best && c.order[i] < c.order[next] {
				best, next = md, int32(i)
			}
		}
		o.landmarks = append(o.landmarks, c.order[next])
		c.bfs(next, o.rows[l*n:(l+1)*n], queue)
	}
	return o
}

// landmarkCSR is the graph renumbered in BFS order, the build-time copy
// the landmark traversals run on: node i in the copy is order[i] in the
// graph, and its neighbours are adj[offsets[i]:offsets[i+1]].
type landmarkCSR struct {
	order   []graph.NodeID
	offsets []int64
	adj     []int32
}

// renumberBFS copies g with its nodes renumbered in BFS order from src,
// the nodes src does not reach appended component by component in
// increasing id order, and writes the distances from src into dist
// (indexed by the new numbers, pre-filled with graph.Unreachable).  It
// also returns pos, the map from original ids to the new numbers.  One
// pass builds all of it: when node i is dequeued every neighbour is
// numbered, because it was numbered earlier or is numbered on the spot,
// so i's adjacency row is written in order.
func renumberBFS(g *graph.Graph, src graph.NodeID, dist []int32) (c landmarkCSR, pos []int32) {
	n := g.N()
	pos = make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	c.order = make([]graph.NodeID, 0, n)
	c.offsets = make([]int64, n+1)
	c.adj = make([]int32, 0, 2*g.M())
	visit := func(v graph.NodeID) {
		pos[v] = int32(len(c.order))
		c.order = append(c.order, v)
	}
	visit(src)
	dist[0] = 0
	root := graph.NodeID(0)
	for i := 0; i < n; i++ {
		if i == len(c.order) {
			// The queue ran dry: start the next component at the smallest
			// id not yet numbered.
			for pos[root] >= 0 {
				root++
			}
			visit(root)
		}
		for _, v := range g.Neighbors(c.order[i]) {
			if pos[v] < 0 {
				if dist[i] != graph.Unreachable {
					dist[len(c.order)] = dist[i] + 1
				}
				visit(v)
			}
			c.adj = append(c.adj, pos[v])
		}
		c.offsets[i+1] = int64(len(c.adj))
	}
	return c, pos
}

// bfs writes hop distances from src over the copy into dist (indexed by
// the new numbers, pre-filled with graph.Unreachable), using queue (length
// n) as scratch.
func (c *landmarkCSR) bfs(src int32, dist, queue []int32) {
	dist[src] = 0
	queue[0] = src
	for head, tail := 0, 1; head < tail; head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range c.adj[c.offsets[u]:c.offsets[u+1]] {
			if dist[v] == graph.Unreachable {
				dist[v] = du
				queue[tail] = v
				tail++
			}
		}
	}
}

// K returns the number of landmarks.
func (o *LandmarkOracle) K() int { return len(o.landmarks) }

// N returns the number of nodes the oracle covers.  Exposing it lets
// consumers that steer by landmark bounds (the serve layer's degraded
// routing tier) reject an oracle built for a different graph, the same
// up-front check route.Greedy applies to fields and analytic metrics.
func (o *LandmarkOracle) N() int { return int(o.n) }

// Bounds returns triangle-inequality bounds lower ≤ d(u,v) ≤ upper.  When
// no landmark reaches both endpoints (which with enough landmarks only
// happens for pairs in different components) it returns (0,
// graph.Unreachable), i.e. "no finite upper bound is known".
func (o *LandmarkOracle) Bounds(u, v graph.NodeID) (lower, upper int32) {
	if u == v {
		return 0, 0
	}
	lower, upper = 0, graph.Unreachable
	n, pu, pv := int64(o.n), int64(o.pos[u]), int64(o.pos[v])
	for i := range o.landmarks {
		du := o.rows[int64(i)*n+pu]
		dv := o.rows[int64(i)*n+pv]
		if du == graph.Unreachable || dv == graph.Unreachable {
			continue
		}
		if diff := du - dv; diff > lower {
			lower = diff
		} else if -diff > lower {
			lower = -diff
		}
		if sum := du + dv; upper == graph.Unreachable || sum < upper {
			upper = sum
		}
	}
	return lower, upper
}

// Dist implements Source with the landmark upper bound (the customary
// landmark estimate).  Pairs no landmark connects yield graph.Unreachable.
func (o *LandmarkOracle) Dist(u, v graph.NodeID) int32 {
	_, upper := o.Bounds(u, v)
	return upper
}
