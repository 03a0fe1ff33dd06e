package dist

import (
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// Source answers point-to-point hop-distance queries in O(1) (or near-O(1))
// time and O(1) memory per query.  It is the abstraction the routing hot
// path steers by: greedy routing only ever asks "how far is v from the
// target t?", and a Source answers exactly that without materialising a
// per-target distance field.
//
// Implementations must be safe for concurrent readers once constructed and
// must agree with BFS hop distances exactly (analytic closed forms for
// structured graph families live in internal/graph/gen and are
// property-tested against BFS).  Unreachable pairs yield graph.Unreachable.
//
// Oracle implementations (APSP, LandmarkOracle) satisfy Source; the
// landmark tier only returns upper bounds, so it must not be used where the
// routing invariants require exact distances.  For graphs with no analytic
// metric, a BFS field wrapped by NewField is the exact fallback Source.
type Source interface {
	// Dist returns the hop distance from u to t.
	Dist(u, t graph.NodeID) int32
}

// Field is a Source backed by one single-source BFS distance field, rooted
// at a fixed target.  It answers Dist(u, t) by indexing the field, ignoring
// t — callers must only query the target the field was computed for (the
// route package validates Dist(t, t) == 0 up front, which catches
// mis-rooted fields).  Field is the adapter between the legacy per-target
// field machinery (FieldCache) and Source-driven routing.
type Field struct {
	d []int32
}

// NewField wraps the BFS distance field d (d[v] = dist(v, target)) as a
// Source for queries towards target.
func NewField(d []int32) Field {
	return Field{d: d}
}

// N returns the number of nodes the field covers.  Sources that know their
// node count (fields, the analytic family metrics) expose it so routing can
// reject a source built for a different graph instead of indexing out of
// range.
func (f Field) N() int { return len(f.d) }

// Dist implements Source by indexing the field; the queried target is
// trusted to be the field's root.
func (f Field) Dist(u, _ graph.NodeID) int32 { return f.d[u] }

// Transitive is a Source over a vertex-transitive graph that additionally
// exposes the graph's distance profile — the sphere sizes |{v : d(u,v)=d}|,
// which by vertex-transitivity do not depend on u — and uniform sampling on
// a sphere.  This is what turns an analytic metric into an analytic
// *sampler*: schemes whose contact law only depends on the distance to the
// contact (harmonic, ball) can draw a distance from the profile and then a
// uniform node at that distance, in O(profile) preprocessing and O(1)-ish
// per draw, instead of enumerating O(n) candidates per draw.
//
// The gen package implements Transitive for cycles, 2D tori, hypercubes and
// complete graphs.
type Transitive interface {
	Source

	// N returns the number of nodes of the underlying graph.
	N() int
	// Eccentricity returns the (common, by vertex-transitivity) eccentricity
	// of every node: the largest realised distance.
	Eccentricity() int32
	// SphereSize returns the number of nodes at distance exactly d from any
	// node, for 0 <= d <= Eccentricity().  SphereSize(0) is always 1.
	SphereSize(d int32) float64
	// SampleAtDistance returns a uniformly random node at distance exactly d
	// from u (d = 0 returns u itself).  It panics if d exceeds the
	// eccentricity.
	SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID
}
