// Package disttest is the conformance harness for distance sources: it
// pins every dist.Source implementation — BFS-field wrappers, analytic
// closed-form metrics, the exact oracles — to BFS ground truth, and the
// approximate landmark tier to its bound contract.  Every new Source
// implementation gets wired into the suite in conformance_test.go; the
// helpers are exported so other packages (gen's metric tests, future
// oracle tiers) can reuse the same checks instead of re-deriving them.
//
// The harness is deterministic: sampled checks derive all their choices
// from fixed seeds, so a conformance failure always reproduces.
package disttest

import (
	"testing"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// ExhaustiveMaxNodes is the graph size up to which Exact compares every
// pair against ground truth; larger graphs are checked on sampled sources
// and probes.
const ExhaustiveMaxNodes = 512

// sampledSources and sampledProbes size the sampled tier: for each of
// sampledSources BFS-rooted nodes, every node is checked when the graph is
// small enough, otherwise sampledProbes random probes plus the row's
// extremes.
const (
	sampledSources = 48
	sampledProbes  = 64
)

// Exact checks an all-pairs Source against BFS ground truth: every pair
// exhaustively for graphs up to ExhaustiveMaxNodes nodes, sampled
// source rows with random probes beyond that.  Unreachable pairs must
// yield graph.Unreachable, and Dist(u, u) must be 0 for every checked u.
func Exact(t testing.TB, g *graph.Graph, src dist.Source) {
	t.Helper()
	n := g.N()
	if n == 0 {
		return
	}
	if n <= ExhaustiveMaxNodes {
		for u := 0; u < n; u++ {
			checkRow(t, g, graph.NodeID(u), src, nil)
		}
		return
	}
	rng := xrand.New(0xd157c0de)
	for s := 0; s < sampledSources; s++ {
		checkRow(t, g, graph.NodeID(rng.Intn(n)), src, rng)
	}
}

// checkRow compares src against the BFS field of u — every node when rng
// is nil, sampled probes plus the farthest node otherwise.
func checkRow(t testing.TB, g *graph.Graph, u graph.NodeID, src dist.Source, rng *xrand.RNG) {
	t.Helper()
	d := g.BFS(u)
	if got := src.Dist(u, u); got != 0 {
		t.Fatalf("%v: Dist(%d,%d) = %d, want 0", g, u, u, got)
	}
	probe := func(v graph.NodeID) {
		if got := src.Dist(u, v); got != d[v] {
			t.Fatalf("%v: Dist(%d,%d) = %d, BFS says %d", g, u, v, got, d[v])
		}
	}
	if rng == nil {
		for v := 0; v < g.N(); v++ {
			probe(graph.NodeID(v))
		}
		return
	}
	far := u
	for v, dv := range d {
		if dv > d[far] {
			far = graph.NodeID(v)
		}
	}
	probe(far)
	for i := 0; i < sampledProbes; i++ {
		probe(graph.NodeID(rng.Intn(g.N())))
	}
}

// ExactAt checks a single-target Source (a BFS field wrapped by
// dist.NewField) against the target's BFS field: such sources only answer
// Dist(u, target), which is exactly what greedy routing asks.
func ExactAt(t testing.TB, g *graph.Graph, target graph.NodeID, src dist.Source) {
	t.Helper()
	d := g.BFS(target)
	for u := 0; u < g.N(); u++ {
		if got := src.Dist(graph.NodeID(u), target); got != d[u] {
			t.Fatalf("%v: field Dist(%d,%d) = %d, BFS says %d", g, u, target, got, d[u])
		}
	}
}

// ExactPinned checks a 2-hop oracle through its target-pinned view, the
// way greedy routing queries it: one dist.TwoHopPin is re-pinned to each
// target in turn — every node up to ExhaustiveMaxNodes, sampled targets
// beyond — and checked against the target's BFS field with ExactAt.
func ExactPinned(t testing.TB, g *graph.Graph, o *dist.TwoHop) {
	t.Helper()
	var p dist.TwoHopPin
	check := func(target graph.NodeID) {
		p.Pin(o, target)
		ExactAt(t, g, target, &p)
	}
	n := g.N()
	if n <= ExhaustiveMaxNodes {
		for v := 0; v < n; v++ {
			check(graph.NodeID(v))
		}
		return
	}
	rng := xrand.New(0x9199)
	for i := 0; i < sampledSources; i++ {
		check(graph.NodeID(rng.Intn(n)))
	}
}

// Bounded is the contract of approximate oracles that return triangle
// bounds (dist.LandmarkOracle).
type Bounded interface {
	dist.Source
	Bounds(u, v graph.NodeID) (lower, upper int32)
}

// UpperLower checks a Bounded oracle's approximation guarantee on every
// pair (small graphs) or sampled pairs: lower <= d(u,v) <= upper for
// connected pairs (upper == graph.Unreachable means "no finite upper bound
// is known" and is only allowed when the oracle genuinely connects no
// landmark to both endpoints), bounds are symmetric in the pair, Dist
// returns exactly the upper bound, and both bounds collapse to the exact
// distance when u == v.
func UpperLower(t testing.TB, g *graph.Graph, o Bounded) {
	t.Helper()
	n := g.N()
	if n == 0 {
		return
	}
	check := func(u, v graph.NodeID, duv int32) {
		lower, upper := o.Bounds(u, v)
		if l2, u2 := o.Bounds(v, u); l2 != lower || u2 != upper {
			t.Fatalf("%v: Bounds(%d,%d) = (%d,%d) but Bounds(%d,%d) = (%d,%d)", g, u, v, lower, upper, v, u, l2, u2)
		}
		if got := o.Dist(u, v); got != upper {
			t.Fatalf("%v: Dist(%d,%d) = %d but upper bound is %d", g, u, v, got, upper)
		}
		if u == v {
			if lower != 0 || upper != 0 {
				t.Fatalf("%v: Bounds(%d,%d) = (%d,%d), want (0,0)", g, u, v, lower, upper)
			}
			return
		}
		if duv == graph.Unreachable {
			// Disconnected pair: any lower bound is vacuously true, but a
			// finite upper bound would claim a path that does not exist.
			if upper != graph.Unreachable {
				t.Fatalf("%v: disconnected pair (%d,%d) got finite upper bound %d", g, u, v, upper)
			}
			return
		}
		if lower < 0 || lower > duv {
			t.Fatalf("%v: lower bound %d for pair (%d,%d) exceeds true distance %d", g, lower, u, v, duv)
		}
		if upper != graph.Unreachable && upper < duv {
			t.Fatalf("%v: upper bound %d for pair (%d,%d) is below true distance %d", g, upper, u, v, duv)
		}
	}
	if n <= ExhaustiveMaxNodes {
		for u := 0; u < n; u++ {
			d := g.BFS(graph.NodeID(u))
			for v := u; v < n; v++ {
				check(graph.NodeID(u), graph.NodeID(v), d[v])
			}
		}
		return
	}
	rng := xrand.New(0xb0a2d5)
	for s := 0; s < sampledSources; s++ {
		u := graph.NodeID(rng.Intn(n))
		d := g.BFS(u)
		check(u, u, 0)
		for i := 0; i < sampledProbes; i++ {
			v := graph.NodeID(rng.Intn(n))
			check(u, v, d[v])
		}
	}
}
