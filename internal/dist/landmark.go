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
// (maximise the distance to the landmarks chosen so far), which spreads
// the sketch over the graph and guarantees every component holding a
// landmark once k reaches the component count.  Preprocessing is k BFS
// traversals and k·n int32 of memory; queries cost O(k).  The oracle is
// immutable after construction and safe for concurrent readers.
type LandmarkOracle struct {
	n         int32
	landmarks []graph.NodeID
	rows      []int32 // row-major k×n, rows[i*n+v] = dist(landmarks[i], v)
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
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	o.landmarks = make([]graph.NodeID, 0, k)
	o.rows = make([]int32, 0, k*n)
	queue := make([]int32, 0, n)
	// minDist[v] = distance from v to the nearest landmark so far.
	minDist := make([]int32, n)
	for i := range minDist {
		minDist[i] = infDist
	}
	next := graph.NodeID(rng.Intn(n))
	for len(o.landmarks) < k {
		o.landmarks = append(o.landmarks, next)
		row := make([]int32, n)
		for i := range row {
			row[i] = graph.Unreachable
		}
		g.BFSInto(next, row, queue)
		o.rows = append(o.rows, row...)
		// Farthest-point rule for the next landmark; unreached nodes count
		// as infinitely far, so fresh components are claimed first.
		best := int32(-1)
		for v := 0; v < n; v++ {
			d := row[v]
			if d == graph.Unreachable {
				d = infDist
			}
			if d < minDist[v] {
				minDist[v] = d
			}
			if minDist[v] > best {
				best = minDist[v]
				next = graph.NodeID(v)
			}
		}
	}
	return o
}

// K returns the number of landmarks.
func (o *LandmarkOracle) K() int { return len(o.landmarks) }

// N returns the number of nodes the oracle covers.  Exposing it lets
// consumers that steer by landmark bounds (the serve layer's degraded
// routing tier) reject an oracle built for a different graph, the same
// up-front check route.Greedy applies to fields and analytic metrics.
func (o *LandmarkOracle) N() int { return int(o.n) }

// Landmarks returns the landmark nodes as a shared, read-only slice.
func (o *LandmarkOracle) Landmarks() []graph.NodeID { return o.landmarks }

// Bounds returns triangle-inequality bounds lower ≤ d(u,v) ≤ upper.  When
// no landmark reaches both endpoints (which with enough landmarks only
// happens for pairs in different components) it returns (0,
// graph.Unreachable), i.e. "no finite upper bound is known".
func (o *LandmarkOracle) Bounds(u, v graph.NodeID) (lower, upper int32) {
	if u == v {
		return 0, 0
	}
	lower, upper = 0, graph.Unreachable
	n := int64(o.n)
	for i := range o.landmarks {
		du := o.rows[int64(i)*n+int64(u)]
		dv := o.rows[int64(i)*n+int64(v)]
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
