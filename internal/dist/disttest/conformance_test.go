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

// TestConformanceTwoHopPacked pins the compressed label representation to
// BFS ground truth through the same harness: the packed decode path must
// answer every query exactly as the raw CSR path does.
func TestConformanceTwoHopPacked(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		Exact(t, g, dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 5, Packed: true}))
	})
}

// TestConformanceTwoHopPinned pins the target-pinned view greedy routing
// probes through, on raw and packed labels, to BFS ground truth.
func TestConformanceTwoHopPinned(t *testing.T) {
	forAllConformanceGraphs(t, func(t *testing.T, g *graph.Graph) {
		o := dist.NewTwoHopWith(g, dist.TwoHopOptions{Workers: 5})
		ExactPinned(t, g, o)
		ExactPinned(t, g, o.Pack())
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
			ExactAt(t, g, target, dist.NewField(g.BFS(target), target))
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
			UpperLower(t, g, dist.NewLandmarkOracle(g, k, xrand.New(uint64(k)+7)))
		}
	})
}
