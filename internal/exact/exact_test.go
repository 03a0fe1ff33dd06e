package exact

import (
	"math"
	"strings"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/core"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

func mustDistributional(t *testing.T, scheme augment.Scheme, g *graph.Graph) augment.Distributional {
	t.Helper()
	inst, err := scheme.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := inst.(augment.Distributional)
	if !ok {
		t.Fatalf("%s does not implement Distributional", scheme.Name())
	}
	return d
}

func TestExpectedStepsNoAugmentationEqualsDistance(t *testing.T) {
	g := gen.Grid2D(6, 6)
	inst := mustDistributional(t, augment.NewNoAugmentation(), g)
	target := graph.NodeID(35)
	exp, err := ExpectedSteps(g, inst, target)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(target)
	for v := range exp {
		if math.Abs(exp[v]-float64(dist[v])) > 1e-12 {
			t.Fatalf("node %d: exact %v, distance %d", v, exp[v], dist[v])
		}
	}
}

// Hand-computed example: path 0-1-2, target 2, uniform scheme.
// E[T(2)] = 0, E[T(1)] = 1 (its neighbour 2 is the target; no contact can
// beat distance 0), and from node 0 the contact is 2 with probability 1/3
// (one step) and otherwise the walk goes through node 1 (two steps), so
// E[T(0)] = 1/3·1 + 2/3·2 = 5/3.
func TestExpectedStepsHandComputedUniformPath3(t *testing.T) {
	g := gen.Path(3)
	inst := mustDistributional(t, augment.NewUniformScheme(), g)
	exp, err := ExpectedSteps(g, inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if exp[2] != 0 {
		t.Fatalf("E[T(2)] = %v", exp[2])
	}
	if math.Abs(exp[1]-1) > 1e-12 {
		t.Fatalf("E[T(1)] = %v, want 1", exp[1])
	}
	if math.Abs(exp[0]-5.0/3.0) > 1e-12 {
		t.Fatalf("E[T(0)] = %v, want 5/3", exp[0])
	}
}

func TestExpectedStepsBoundedByDistance(t *testing.T) {
	rng := xrand.New(3)
	g := gen.ConnectedGNP(120, 0.03, rng)
	for _, scheme := range []augment.Scheme{
		augment.NewUniformScheme(),
		augment.NewBallScheme(),
		augment.NewHarmonicScheme(1),
	} {
		inst := mustDistributional(t, scheme, g)
		target := graph.NodeID(17)
		exp, err := ExpectedSteps(g, inst, target)
		if err != nil {
			t.Fatal(err)
		}
		dist := g.BFS(target)
		for v := range exp {
			if dist[v] == graph.Unreachable {
				continue
			}
			if exp[v] > float64(dist[v])+1e-9 {
				t.Fatalf("%s: E[T(%d)] = %v exceeds distance %d", scheme.Name(), v, exp[v], dist[v])
			}
			if exp[v] < 0 {
				t.Fatalf("%s: negative expectation at %d", scheme.Name(), v)
			}
		}
	}
}

func TestExpectedStepsUnreachableMarked(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	inst := mustDistributional(t, augment.NewNoAugmentation(), g)
	exp, err := ExpectedSteps(g, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exp[2] != -1 || exp[3] != -1 {
		t.Fatal("unreachable nodes should be marked with -1")
	}
}

func TestExpectedStepsInputValidation(t *testing.T) {
	g := gen.Path(5)
	inst := mustDistributional(t, augment.NewUniformScheme(), g)
	if _, err := ExpectedSteps(g, inst, 9); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := ExpectedSteps(empty, inst, 0); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPairExpectation(t *testing.T) {
	g := gen.Path(50)
	inst := mustDistributional(t, augment.NewNoAugmentation(), g)
	exp, err := ExpectedSteps(g, inst, 49)
	if err != nil {
		t.Fatal(err)
	}
	if exp[0] != 49 {
		t.Fatalf("pair expectation %v, want 49", exp[0])
	}
	dg := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	dinst := mustDistributional(t, augment.NewNoAugmentation(), dg)
	if exp, err := ExpectedSteps(dg, dinst, 3); err != nil || exp[0] >= 0 {
		t.Fatalf("disconnected pair: expectation %v, err %v; want a negative entry", exp, err)
	}
}

// The Monte Carlo estimator must agree with the exact DP for every scheme
// core knows whose instances expose their contact distributions, on a tree,
// a grid and a random graph.  Each case routes one fixed pair (node 0 and
// the node farthest from it), so the trial-level CI of that pair's mean is
// the estimator's own error bar: the estimate must lie within 1.5 of those
// half-widths (about 3σ) of the exact value, plus a little float slack.
func TestMonteCarloMatchesExact(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RandomTree(150, xrand.New(21)),
		gen.Grid2D(12, 12),
		gen.ConnectedGNP(150, 0.03, xrand.New(22)),
	}
	e := sim.NewEngine(0)
	defer e.Close()
	for _, name := range core.SchemeNames() {
		name = strings.ReplaceAll(name, "<r>", "2")
		scheme, err := core.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ran := 0
		for _, g := range graphs {
			inst, err := scheme.Prepare(g)
			if err != nil {
				continue // theorem2-tree needs a tree
			}
			d, ok := inst.(augment.Distributional)
			if !ok {
				continue
			}
			ran++
			s, tgt := graph.NodeID(0), farthestFrom(g, 0)
			exp, err := ExpectedSteps(g, d, tgt)
			if err != nil {
				t.Fatal(err)
			}
			est, err := e.Estimate(g, scheme, sim.Config{
				FixedPairs: []sim.Pair{{Source: s, Target: tgt}},
				Trials:     2000,
				Seed:       11,
			})
			if err != nil {
				t.Fatal(err)
			}
			ci := est.PairStats[0].Steps.CI95()
			if diff := math.Abs(est.MeanSteps - exp[s]); diff > 1.5*ci+1e-9 {
				t.Errorf("%s on %v: Monte Carlo %v ± %v vs exact %v", name, g, est.MeanSteps, ci, exp[s])
			}
		}
		if ran == 0 {
			t.Errorf("%s: no graph gave a Distributional instance", name)
		}
	}
}

// farthestFrom returns the node farthest from s, the smallest id on ties.
func farthestFrom(g *graph.Graph, s graph.NodeID) graph.NodeID {
	dist := g.BFS(s)
	far := s
	for v, d := range dist {
		if d > dist[far] {
			far = graph.NodeID(v)
		}
	}
	return far
}

func TestGreedyDiameterExactSmallPath(t *testing.T) {
	g := gen.Path(40)
	res, err := SchemeGreedyDiameter(g, augment.NewNoAugmentation())
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyDiameter != 39 {
		t.Fatalf("exact greedy diameter %v, want 39", res.GreedyDiameter)
	}
	if res.ArgSource == res.ArgTarget {
		t.Fatal("argmax pair degenerate")
	}
	// The extremal pair of an unaugmented path is one of the two endpoints
	// pairs.
	d := res.ArgSource - res.ArgTarget
	if d != 39 && d != -39 {
		t.Fatalf("argmax pair (%d,%d) is not an endpoint pair", res.ArgSource, res.ArgTarget)
	}
	if res.MeanExpectation <= 0 || res.MeanExpectation >= 39 {
		t.Fatalf("mean expectation %v out of range", res.MeanExpectation)
	}
}

func TestGreedyDiameterUniformBelowDiameter(t *testing.T) {
	g := gen.Path(120)
	res, err := SchemeGreedyDiameter(g, augment.NewUniformScheme())
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyDiameter >= 119 {
		t.Fatalf("uniform augmentation did not help at all: %v", res.GreedyDiameter)
	}
	// Peleg's bound: at most ~3√n.
	if res.GreedyDiameter > 3*math.Sqrt(120)+5 {
		t.Fatalf("uniform greedy diameter %v above the 3√n bound", res.GreedyDiameter)
	}
}

func TestBallBeatsUniformExactlyOnLongPair(t *testing.T) {
	// Exact computation of the end-to-end pair expectation on a path long
	// enough for the Theorem 4 asymptotics to have kicked in: the ball
	// scheme must strictly beat the uniform scheme.
	g := gen.Path(4096)
	uniInst := mustDistributional(t, augment.NewUniformScheme(), g)
	ballInst := mustDistributional(t, augment.NewBallScheme(), g)
	uniExp, err := ExpectedSteps(g, uniInst, 4095)
	if err != nil {
		t.Fatal(err)
	}
	ballExp, err := ExpectedSteps(g, ballInst, 4095)
	if err != nil {
		t.Fatal(err)
	}
	uni, ball := uniExp[0], ballExp[0]
	if ball >= uni {
		t.Fatalf("exact: ball %v not below uniform %v on the (0,4095) pair", ball, uni)
	}
	// And both must be dramatic improvements over plain walking.
	if uni > 3*math.Sqrt(4096)+10 {
		t.Fatalf("uniform pair expectation %v above the 3√n bound", uni)
	}
}

func TestGreedyDiameterRequiresConnected(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	if _, err := SchemeGreedyDiameter(g, augment.NewUniformScheme()); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSchemeGreedyDiameterRejectsNonDistributional(t *testing.T) {
	g := gen.Path(10)
	opaque := opaqueScheme{}
	if _, err := SchemeGreedyDiameter(g, opaque); err == nil {
		t.Fatal("non-distributional scheme accepted")
	}
}

// opaqueScheme is an Instance without ContactDistribution, used to test the
// graceful failure path.
type opaqueScheme struct{}

func (opaqueScheme) Name() string { return "opaque" }
func (opaqueScheme) Prepare(g *graph.Graph) (augment.Instance, error) {
	contacts := make([]graph.NodeID, g.N())
	for u := range contacts {
		contacts[u] = graph.NodeID(u)
	}
	return augment.NewStatic("opaque", contacts)
}

func BenchmarkExpectedStepsUniformPath(b *testing.B) {
	g := gen.Path(2000)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	d := inst.(augment.Distributional)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExpectedSteps(g, d, 1999); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactGreedyDiameterSmallGrid(b *testing.B) {
	g := gen.Grid2D(12, 12)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	d := inst.(augment.Distributional)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyDiameter(g, d); err != nil {
			b.Fatal(err)
		}
	}
}
