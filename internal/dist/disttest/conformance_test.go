package disttest

import (
	"testing"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

// conformanceGraphs is the cross-implementation inventory: structural
// families with analytic metrics, unstructured random families (the 2-hop
// oracle's home turf), degree-flat expanders (its hard case), and a
// disconnected graph so unreachable-pair handling is pinned too.  Small
// instances are checked pair-exhaustively, the large tier (n up to 4096)
// on sampled sources.
func conformanceGraphs(t testing.TB, small bool) []*graph.Graph {
	t.Helper()
	rng := xrand.New(0xc0f0)
	mustRegular := func(n, d int) *graph.Graph {
		g, err := gen.RandomRegular(n, d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", n, d, err)
		}
		return g
	}
	if small {
		return []*graph.Graph{
			gen.Path(65),
			gen.Star(41),
			gen.Grid2D(8, 9),
			gen.Torus2D(6, 8),
			gen.Hypercube(6),
			gen.BinaryTree(127),
			gen.Barbell(9, 14),
			gen.RandomTree(300, rng),
			gen.RandomAttachmentTree(256, rng),
			gen.PowerLawAttachment(400, 2, rng),
			gen.WattsStrogatz(256, 2, 0.1, rng),
			mustRegular(128, 4),
			gen.GNP(350, 1.2/350.0, rng), // deliberately disconnected
		}
	}
	return []*graph.Graph{
		gen.Grid2D(64, 64),
		gen.RandomTree(4096, rng),
		gen.PowerLawAttachment(4096, 2, rng),
		gen.WattsStrogatz(2048, 2, 0.1, rng),
		gen.GNP(4096, 2.0/4096.0, rng), // deliberately disconnected
	}
}

func forAllConformanceGraphs(t *testing.T, f func(t *testing.T, g *graph.Graph)) {
	t.Helper()
	for _, small := range []bool{true, false} {
		for _, g := range conformanceGraphs(t, small) {
			g := g
			t.Run(g.String(), func(t *testing.T) { f(t, g) })
		}
	}
}

// TestConformanceTwoHop pins the 2-hop-cover oracle to BFS ground truth on
// every conformance graph, at two worker counts (the labels must be
// identical, which TestTwoHopDeterministicAcrossWorkers in the dist
// package checks entry-by-entry; here both builds must simply be exact).
func TestConformanceTwoHop(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		Exact(t, g, dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 1}))
		Exact(t, g, dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 5}))
	})
}

// TestConformanceTwoHopPacked pins the oracle reloaded from its packed
// arrays (TwoHopPackedFromRaw, the snapshot load path) and the Unpack
// reference the benchmarks and fuzzers compare probes against to BFS
// ground truth.
func TestConformanceTwoHopPacked(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		o := dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 5})
		order, poff, blob := o.RawPacked()
		loaded, err := dist.TwoHopPackedFromRaw(o.N(), order, poff, blob)
		if err != nil {
			t.Fatal(err)
		}
		Exact(t, g, loaded)
		Exact(t, g, o.Unpack())
	})
}

// TestConformanceTwoHopPinned pins the target-pinned view greedy routing
// probes through to BFS ground truth.
func TestConformanceTwoHopPinned(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		o := dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 5})
		exactPinned(t, g, o)
	})
}

// TestConformanceAPSP pins the exact all-pairs matrix oracle.
func TestConformanceAPSP(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		if g.N() > ExhaustiveMaxNodes {
			t.Skip("matrix oracle is for the small tier")
		}
		Exact(t, g, dist.NewAPSP(g))
	})
}

// TestConformanceField pins the per-target BFS field wrapper on sampled
// targets of every conformance graph.
func TestConformanceField(t *testing.T) {
	rng := xrand.New(0xf1e1d)
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		for i := 0; i < 4; i++ {
			target := graph.NodeID(rng.Intn(g.N()))
			exactAt(t, g, target, dist.NewField(g.BFS(target)))
		}
	})
}

// TestConformanceAnalyticMetrics pins every registered closed-form family
// metric through the same harness the oracles go through (the gen package
// additionally property-tests the metrics on its own instances).
func TestConformanceAnalyticMetrics(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		src, ok := gen.MetricFor(g)
		if !ok {
			t.Skip("family has no analytic metric")
		}
		Exact(t, g, src)
	})
}

// TestConformanceLandmarkBounds pins the approximate landmark tier to its
// documented guarantee — triangle lower bound <= true distance <= upper
// bound, Dist returning the upper bound — at several sketch sizes
// including k = 1 and k > component count.
func TestConformanceLandmarkBounds(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		for _, k := range []int{1, 4, 16} {
			upperLower(t, g, dist.NewLandmarkOracle(g, k, xrand.New(uint64(k)+7)))
		}
	})
}

// exactAt checks a single-target Source (a BFS field wrapped by
// dist.NewField) against the target's BFS field: such sources only answer
// Dist(u, target), which is exactly what greedy routing asks.
func exactAt(t testing.TB, g *graph.Graph, target graph.NodeID, src dist.Source) {
	t.Helper()
	d := g.BFS(target)
	for u := 0; u < g.N(); u++ {
		if got := src.Dist(graph.NodeID(u), target); got != d[u] {
			t.Fatalf("%v: field Dist(%d,%d) = %d, BFS says %d", g, u, target, got, d[u])
		}
	}
}

// exactPinned checks a 2-hop oracle through its target-pinned view, the
// way greedy routing queries it: one dist.TwoHopPin is re-pinned to each
// target in turn — every node up to ExhaustiveMaxNodes, sampled targets
// beyond — and checked against the target's BFS field with exactAt.
func exactPinned(t testing.TB, g *graph.Graph, o *dist.TwoHop) {
	t.Helper()
	var p dist.TwoHopPin
	check := func(target graph.NodeID) {
		p.Pin(o, target)
		exactAt(t, g, target, &p)
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

// bounded is the contract of approximate oracles that return triangle
// bounds (dist.LandmarkOracle).
type bounded interface {
	dist.Source
	Bounds(u, v graph.NodeID) (lower, upper int32)
}

// upperLower checks a bounded oracle's approximation guarantee on every
// pair (small graphs) or sampled pairs: lower <= d(u,v) <= upper for
// connected pairs (upper == graph.Unreachable means "no finite upper bound
// is known" and is only allowed when the oracle genuinely connects no
// landmark to both endpoints), bounds are symmetric in the pair, Dist
// returns exactly the upper bound, and both bounds collapse to the exact
// distance when u == v.
func upperLower(t testing.TB, g *graph.Graph, o bounded) {
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
