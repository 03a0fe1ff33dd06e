package gen

import (
	"testing"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// metricCase is one (constructor, size) instance of the property test.
type metricCase struct {
	// family is the constructor's canonical name prefix.
	family string
	// wantMetric says whether the family must have a registered analytic
	// metric; a family listed with wantMetric=false documents that its
	// closed form is intentionally absent.
	wantMetric bool
	// build returns instances at roughly the requested size.
	build func(n int, rng *xrand.RNG) *graph.Graph
}

// metricCases is the table-driven inventory of every gen constructor.  The
// companion TestMetricRegistryCovered cross-checks it against the metric
// registry in both directions, so adding a family metric without a test
// entry — or a test entry claiming a metric that is not registered — fails
// loudly.  (A brand-new constructor must be added here by hand; the
// registry cross-check then forces a decision about its metric.)
var metricCases = []metricCase{
	{"path", true, func(n int, _ *xrand.RNG) *graph.Graph { return Path(n) }},
	{"cycle", true, func(n int, _ *xrand.RNG) *graph.Graph { return Cycle(max(3, n)) }},
	{"complete", true, func(n int, _ *xrand.RNG) *graph.Graph { return Complete(min(n, 96)) }},
	{"star", true, func(n int, _ *xrand.RNG) *graph.Graph { return Star(n) }},
	{"grid", true, func(n int, _ *xrand.RNG) *graph.Graph {
		side := intSqrtT(n)
		return Grid2D(side, side+1)
	}},
	{"torus", true, func(n int, _ *xrand.RNG) *graph.Graph {
		side := max(3, intSqrtT(n))
		return Torus2D(side, side+2)
	}},
	{"grid3d", true, func(n int, _ *xrand.RNG) *graph.Graph {
		s := max(2, intCbrtT(n))
		return Grid3D(s, s+1, max(1, s-1))
	}},
	{"hypercube", true, func(n int, _ *xrand.RNG) *graph.Graph {
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return Hypercube(d)
	}},
	{"tree", true, func(n int, _ *xrand.RNG) *graph.Graph {
		depth := 0
		for sz := 1; sz*3+1 <= n; depth++ {
			sz = sz*3 + 1
		}
		return BalancedTree(3, depth)
	}},
	{"bintree", true, func(n int, _ *xrand.RNG) *graph.Graph { return BinaryTree(n) }},

	// Families below have no registered closed form (irregular or random).
	{"caterpillar", false, func(n int, _ *xrand.RNG) *graph.Graph { return Caterpillar(max(1, n/4), 3) }},
	{"spider", false, func(n int, _ *xrand.RNG) *graph.Graph { return Spider(5, max(1, n/5)) }},
	{"comb", false, func(n int, _ *xrand.RNG) *graph.Graph { return Comb(max(1, n/3), 2) }},
	{"lollipop", false, func(n int, _ *xrand.RNG) *graph.Graph { return Lollipop(max(1, min(n/2, 48)), n/2) }},
	{"barbell", false, func(n int, _ *xrand.RNG) *graph.Graph { return Barbell(max(1, min(n/3, 48)), n/3) }},
	{"rtree", false, func(n int, rng *xrand.RNG) *graph.Graph { return RandomTree(n, rng) }},
	{"cgnp", false, func(n int, rng *xrand.RNG) *graph.Graph { return ConnectedGNP(n, 3.0/float64(n), rng) }},
	{"plaw", false, func(n int, rng *xrand.RNG) *graph.Graph { return PowerLawAttachment(max(3, n), 2, rng) }},
	{"ratree", false, func(n int, rng *xrand.RNG) *graph.Graph { return RandomAttachmentTree(n, rng) }},
}

// TestMetricMatchesBFSExhaustive checks every registered analytic metric
// against BFS on all pairs of small instances (n <= 512).
func TestMetricMatchesBFSExhaustive(t *testing.T) {
	rng := xrand.New(11)
	for _, tc := range metricCases {
		for _, size := range []int{5, 24, 130, 512} {
			g := tc.build(size, rng)
			src, ok := MetricFor(g)
			if ok != tc.wantMetric {
				t.Fatalf("%s (n=%d, name %q): MetricFor ok=%v, want %v", tc.family, g.N(), g.Name(), ok, tc.wantMetric)
			}
			if !ok {
				continue
			}
			n := g.N()
			for u := 0; u < n; u++ {
				d := g.BFS(graph.NodeID(u))
				for v := 0; v < n; v++ {
					got := src.Dist(graph.NodeID(u), graph.NodeID(v))
					if got != d[v] {
						t.Fatalf("%s (n=%d): metric dist(%d,%d)=%d, BFS says %d", tc.family, n, u, v, got, d[v])
					}
				}
			}
		}
	}
}

// TestMetricMatchesBFSSampled checks the metrics on sampled pairs of
// larger instances (n up to 4096), where exhaustive pair enumeration is
// too slow for the race job.
func TestMetricMatchesBFSSampled(t *testing.T) {
	rng := xrand.New(12)
	for _, tc := range metricCases {
		if !tc.wantMetric {
			continue
		}
		for _, size := range []int{1500, 4096} {
			g := tc.build(size, rng)
			src, ok := MetricFor(g)
			if !ok {
				t.Fatalf("%s (n=%d, name %q): no metric", tc.family, g.N(), g.Name())
			}
			n := g.N()
			for trial := 0; trial < 64; trial++ {
				u := graph.NodeID(rng.Intn(n))
				d := g.BFS(u)
				for probe := 0; probe < 32; probe++ {
					v := graph.NodeID(rng.Intn(n))
					if got := src.Dist(u, v); got != d[v] {
						t.Fatalf("%s (n=%d): metric dist(%d,%d)=%d, BFS says %d", tc.family, n, u, v, got, d[v])
					}
				}
			}
		}
	}
}

// TestMetricRegistryCovered cross-checks the test table against the
// registry: every registered family must appear in the table with
// wantMetric=true, and vice versa.  A new family registered without a
// property-test entry (or expected here but never registered) fails.
func TestMetricRegistryCovered(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range metricRegistry {
		registered[e.family] = true
	}
	tabled := map[string]bool{}
	for _, tc := range metricCases {
		tabled[tc.family] = tc.wantMetric
		if tc.wantMetric && !registered[tc.family] {
			t.Errorf("family %q claims a metric in the test table but none is registered", tc.family)
		}
		if !tc.wantMetric && registered[tc.family] {
			t.Errorf("family %q has a registered metric but the test table says it should not", tc.family)
		}
	}
	for fam := range registered {
		if _, ok := tabled[fam]; !ok {
			t.Errorf("registered metric family %q has no entry in the property-test table", fam)
		}
	}
}

// TestMetricForRejectsMismatchedGraph ensures a graph renamed into a
// family it does not belong to can never pick up that family's metric.
func TestMetricForRejectsMismatchedGraph(t *testing.T) {
	g := Path(10).WithName("path-99") // wrong n for the claimed family
	if _, ok := MetricFor(g); ok {
		t.Fatal("metric accepted for a graph whose size contradicts its name")
	}
	h := Path(10).WithName("gibberish")
	if _, ok := MetricFor(h); ok {
		t.Fatal("metric invented for an unknown name")
	}
	k := Path(10).WithName("torus-axb")
	if _, ok := MetricFor(k); ok {
		t.Fatal("metric accepted for unparsable parameters")
	}
}

// TestTransitiveProfiles checks the vertex-transitive extensions: the
// sphere sizes must match BFS distance histograms from every node, the
// profile must sum to n, and SampleAtDistance must return nodes at exactly
// the requested distance with full support over small spheres.
func TestTransitiveProfiles(t *testing.T) {
	rng := xrand.New(13)
	builds := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle-odd", Cycle(31)},
		{"cycle-even", Cycle(32)},
		{"torus-odd", Torus2D(5, 7)},
		{"torus-even", Torus2D(6, 8)},
		{"torus-mixed", Torus2D(5, 8)},
		{"hypercube", Hypercube(5)},
		{"complete", Complete(17)},
	}
	for _, b := range builds {
		src, ok := MetricFor(b.g)
		if !ok {
			t.Fatalf("%s: no metric", b.name)
		}
		tr, ok := src.(dist.Transitive)
		if !ok {
			t.Fatalf("%s: metric is not Transitive", b.name)
		}
		n := b.g.N()
		if tr.N() != n {
			t.Fatalf("%s: N()=%d, want %d", b.name, tr.N(), n)
		}
		ecc := tr.Eccentricity()
		// Profile vs BFS histogram from every node (vertex-transitivity
		// means they must all agree).
		for u := 0; u < n; u++ {
			hist := make([]float64, ecc+1)
			for _, d := range b.g.BFS(graph.NodeID(u)) {
				if d < 0 || d > ecc {
					t.Fatalf("%s: BFS distance %d outside [0,%d]", b.name, d, ecc)
				}
				hist[d]++
			}
			for d := int32(0); d <= ecc; d++ {
				if tr.SphereSize(d) != hist[d] {
					t.Fatalf("%s: SphereSize(%d)=%g, BFS histogram says %g (from node %d)",
						b.name, d, tr.SphereSize(d), hist[d], u)
				}
			}
		}
		// SampleAtDistance: right distance always; full support on spheres
		// of size <= 4 within a generous sample budget.
		for u := 0; u < min(n, 8); u++ {
			for d := int32(0); d <= ecc; d++ {
				seen := map[graph.NodeID]bool{}
				for trial := 0; trial < 256; trial++ {
					v := tr.SampleAtDistance(graph.NodeID(u), d, rng)
					if got := tr.Dist(graph.NodeID(u), v); got != d {
						t.Fatalf("%s: SampleAtDistance(%d, %d) returned node at distance %d", b.name, u, d, got)
					}
					seen[v] = true
				}
				if size := tr.SphereSize(d); size <= 4 && float64(len(seen)) != size {
					t.Fatalf("%s: sphere(%d, d=%d) has %g nodes but sampling hit %d", b.name, u, d, size, len(seen))
				}
			}
		}
	}
}

func intSqrtT(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func intCbrtT(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}
