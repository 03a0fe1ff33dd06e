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
