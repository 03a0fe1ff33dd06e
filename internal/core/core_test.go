package core

import (
	"strings"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/sim"
)

// estimateByName builds the named graph and scheme and estimates their
// greedy diameter on a fresh engine, the way `navsim estimate` does.
func estimateByName(t *testing.T, family string, n int, seed uint64, scheme string, cfg sim.Config) (*sim.Estimate, error) {
	t.Helper()
	g, err := GraphByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(0)
	defer e.Close()
	return e.Estimate(g, s, cfg)
}

func TestAugmentAndRoute(t *testing.T) {
	est, err := estimateByName(t, "grid", 144, 1, "ball",
		sim.Config{FixedPairs: []sim.Pair{{Source: 0, Target: 143}}, Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Scheme != "ball" || est.N != 144 {
		t.Fatalf("estimate names scheme %q on n=%d, want ball on 144", est.Scheme, est.N)
	}
	ps := est.PairStats[0]
	if ps.Failed != 0 || ps.Steps.Count != 3 || ps.Dist != 22 {
		t.Fatalf("routing 0 -> 143 on the 12x12 grid: %+v", ps)
	}
}

func TestAugmentPropagatesErrors(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	_, err := e.Estimate(graph.NewBuilder(0).Build(), augment.NewUniformScheme(), sim.Config{})
	if err == nil || !strings.Contains(err.Error(), "preparing") {
		t.Fatalf("empty graph: got %v, want a prepare error", err)
	}
}

func TestEstimateGreedyDiameterViaNames(t *testing.T) {
	est, err := estimateByName(t, "path", 500, 1, "uniform", sim.Config{Pairs: 4, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 8 || est.GreedyDiameter <= 0 {
		t.Fatalf("estimate %+v", est)
	}
}

func TestSchemeByNameAllKnown(t *testing.T) {
	names := []string{"none", "uniform", "ball", "theorem2", "theorem2-tree", "theorem2-bfs", "harmonic", "harmonic:2"}
	for _, name := range names {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%s: nil scheme", name)
		}
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := SchemeByName("harmonic:abc"); err == nil {
		t.Fatal("bad harmonic exponent accepted")
	}
	if len(SchemeNames()) == 0 {
		t.Fatal("SchemeNames empty")
	}
}

func TestSchemeByNameCaseInsensitive(t *testing.T) {
	if _, err := SchemeByName("  Uniform "); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicSchemeExponentParsed(t *testing.T) {
	s, err := SchemeByName("harmonic:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name(), "2.5") {
		t.Fatalf("exponent lost: %s", s.Name())
	}
}

func TestGraphByNameAllFamilies(t *testing.T) {
	for _, fam := range gen.Families() {
		g, err := GraphByName(fam, 60, 42)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if g.N() < 2 {
			t.Fatalf("%s: too small (%d nodes)", fam, g.N())
		}
		if !g.IsConnected() {
			t.Fatalf("%s: not connected", fam)
		}
	}
}

func TestGraphByNameErrors(t *testing.T) {
	if _, err := GraphByName("nope", 10, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := GraphByName("path", 0, 1); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestGraphByNameDeterministicForSeed(t *testing.T) {
	a, err := GraphByName("random-tree", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GraphByName("random-tree", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestGraphByNameSizesApproximate(t *testing.T) {
	g, err := GraphByName("grid", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 31x31 = 961
	if g.N() != 961 {
		t.Fatalf("grid size %d, want 961", g.N())
	}
	h, err := GraphByName("hypercube", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 512 {
		t.Fatalf("hypercube size %d, want 512", h.N())
	}
}

func TestEndToEndTheorem2OnTreeViaNames(t *testing.T) {
	est, err := estimateByName(t, "binary-tree", 1023, 3, "theorem2-tree",
		sim.Config{Pairs: 6, Trials: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Polylog regime: on a 1023-node tree the greedy diameter should be well
	// below the ~64 steps a √n-scheme would need only if... keep the check
	// loose: below half the diameter-based worst case and above zero.
	if est.GreedyDiameter <= 0 || est.GreedyDiameter > 200 {
		t.Fatalf("suspicious greedy diameter %v", est.GreedyDiameter)
	}
}
