package route

import (
	"testing"
	"testing/quick"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

func distTo(g *graph.Graph, t graph.NodeID) dist.Field {
	return dist.NewField(g.BFS(t))
}

func TestGreedyWithoutAugmentationFollowsShortestPath(t *testing.T) {
	g := gen.Path(50)
	inst, _ := augment.NewNoAugmentation().Prepare(g)
	rng := xrand.New(1)
	res, err := Greedy(g, inst, 0, 49, distTo(g, 49), rng, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("target not reached")
	}
	if res.Steps != 49 {
		t.Fatalf("steps %d, want 49", res.Steps)
	}
	if res.LongLinksUsed != 0 {
		t.Fatal("no-augmentation run used long links")
	}
	if len(res.Path) != 50 || res.Path[0] != 0 || res.Path[49] != 49 {
		t.Fatalf("trace malformed: len=%d", len(res.Path))
	}
}

func TestGreedySourceEqualsTarget(t *testing.T) {
	g := gen.Cycle(10)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	res, err := Greedy(g, inst, 3, 3, distTo(g, 3), xrand.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || !res.Reached {
		t.Fatalf("self routing: %+v", res)
	}
}

func TestGreedyValidatesInput(t *testing.T) {
	g := gen.Path(10)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	rng := xrand.New(3)
	if _, err := Greedy(g, inst, 0, 20, distTo(g, 5), rng, Options{}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := Greedy(g, inst, 0, 5, nil, rng, Options{}); err == nil {
		t.Fatal("nil distance source accepted")
	}
	// field built for a smaller graph must error, not index out of range
	if _, err := Greedy(g, inst, 0, 5, dist.NewField(make([]int32, 3)), rng, Options{}); err == nil {
		t.Fatal("short distance field accepted")
	}
	// metric of the wrong size must be rejected too
	if _, err := Greedy(g, inst, 0, 5, gen.PathMetric(99), rng, Options{}); err == nil {
		t.Fatal("mis-sized metric accepted")
	}
	// distance field rooted at the wrong node
	if _, err := Greedy(g, inst, 0, 5, dist.NewField(g.BFS(6)), rng, Options{}); err == nil {
		t.Fatal("mis-rooted distance source accepted")
	}
	// unreachable target
	dg := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	dinst, _ := augment.NewUniformScheme().Prepare(dg)
	if _, err := Greedy(dg, dinst, 0, 3, distTo(dg, 3), rng, Options{}); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestGreedyStepsNeverExceedDistanceWithoutAugmentation(t *testing.T) {
	rng := xrand.New(4)
	check := func(raw uint16) bool {
		n := 2 + int(raw%100)
		p := 2.5 / float64(n)
		if p > 1 {
			p = 1
		}
		g := gen.ConnectedGNP(n, p, rng)
		inst, _ := augment.NewNoAugmentation().Prepare(g)
		s := graph.NodeID(rng.Intn(n))
		tt := graph.NodeID(rng.Intn(n))
		d := distTo(g, tt)
		res, err := Greedy(g, inst, s, tt, d, rng, Options{})
		if err != nil {
			return false
		}
		return res.Reached && res.Steps == int(d.Dist(s, tt))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with any augmentation, greedy routing reaches the target in at
// most dist(s,t) * 1 steps... actually in at most dist(s,t) steps is false;
// the correct invariant is that every step strictly decreases the distance,
// so Steps <= dist(s,t) always holds.
func TestGreedyStepsBoundedByInitialDistance(t *testing.T) {
	rng := xrand.New(5)
	schemes := []augment.Scheme{
		augment.NewUniformScheme(),
		augment.NewBallScheme(),
		augment.NewHarmonicScheme(1),
	}
	g := gen.Grid2D(15, 15)
	for _, s := range schemes {
		inst, err := s.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			src := graph.NodeID(rng.Intn(g.N()))
			tgt := graph.NodeID(rng.Intn(g.N()))
			d := distTo(g, tgt)
			res, err := Greedy(g, inst, src, tgt, d, rng, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Fatalf("%s: target not reached", s.Name())
			}
			if res.Steps > int(d.Dist(src, tgt)) {
				t.Fatalf("%s: %d steps exceeds initial distance %d", s.Name(), res.Steps, d.Dist(src, tgt))
			}
		}
	}
}

func TestGreedyTraceIsAWalkWithDecreasingDistance(t *testing.T) {
	rng := xrand.New(6)
	g := gen.Grid2D(12, 12)
	inst, _ := augment.NewBallScheme().Prepare(g)
	src, tgt := graph.NodeID(0), graph.NodeID(g.N()-1)
	d := distTo(g, tgt)
	res, err := Greedy(g, inst, src, tgt, d, rng, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("not reached")
	}
	for i := 1; i < len(res.Path); i++ {
		prev, cur := res.Path[i-1], res.Path[i]
		if d.Dist(cur, tgt) >= d.Dist(prev, tgt) {
			t.Fatalf("distance did not decrease at step %d (%d -> %d)", i, d.Dist(prev, tgt), d.Dist(cur, tgt))
		}
		// Every hop is either a graph edge or a long-range link; long-range
		// links can go anywhere, so only check the local case loosely: if it
		// is not an edge it must have been a long link.
	}
	if res.LongLinksUsed > res.Steps {
		t.Fatal("more long links than steps")
	}
}

func TestGreedyLongLinksActuallyUsedOnLongPaths(t *testing.T) {
	// On a long path with uniform augmentation, routing across the whole
	// path will almost surely use at least one long link.
	g := gen.Path(2000)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	rng := xrand.New(7)
	used := 0
	for trial := 0; trial < 10; trial++ {
		res, err := Greedy(g, inst, 0, 1999, distTo(g, 1999), rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			t.Fatal("not reached")
		}
		used += res.LongLinksUsed
	}
	if used == 0 {
		t.Fatal("uniform augmentation never used a long link across 10 trials")
	}
}

func TestGreedyMaxStepsCap(t *testing.T) {
	g := gen.Path(100)
	inst, _ := augment.NewNoAugmentation().Prepare(g)
	res, err := Greedy(g, inst, 0, 99, distTo(g, 99), xrand.New(8), Options{MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("should not reach under a tiny cap")
	}
	if res.Steps != 5 {
		t.Fatalf("steps %d, want 5", res.Steps)
	}
}

func TestGreedyDeterministicGivenSeed(t *testing.T) {
	g := gen.Grid2D(10, 10)
	scheme := augment.NewBallScheme()
	inst, _ := scheme.Prepare(g)
	d := distTo(g, 99)
	r1, err := Greedy(g, inst, 0, 99, d, xrand.New(42), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Greedy(g, inst, 0, 99, d, xrand.New(42), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || len(r1.Path) != len(r2.Path) {
		t.Fatal("same seed produced different routes")
	}
	for i := range r1.Path {
		if r1.Path[i] != r2.Path[i] {
			t.Fatal("same seed produced different paths")
		}
	}
}

func TestGreedyUniformBeatsNoAugmentationOnAverage(t *testing.T) {
	// Sanity check of the very premise of the paper: augmentation helps.
	g := gen.Path(3000)
	rng := xrand.New(9)
	noneInst, _ := augment.NewNoAugmentation().Prepare(g)
	uniInst, _ := augment.NewUniformScheme().Prepare(g)
	d := distTo(g, 2999)
	noneSteps, uniSteps := 0, 0
	const trials = 20
	for i := 0; i < trials; i++ {
		rn, err := Greedy(g, noneInst, 0, 2999, d, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ru, err := Greedy(g, uniInst, 0, 2999, d, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		noneSteps += rn.Steps
		uniSteps += ru.Steps
	}
	if uniSteps >= noneSteps {
		t.Fatalf("uniform augmentation (%d total steps) did not beat plain walking (%d)", uniSteps, noneSteps)
	}
}

func TestGreedyWithLookaheadReachesTarget(t *testing.T) {
	rng := xrand.New(10)
	g := gen.Grid2D(15, 15)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	for trial := 0; trial < 30; trial++ {
		src := graph.NodeID(rng.Intn(g.N()))
		tgt := graph.NodeID(rng.Intn(g.N()))
		d := distTo(g, tgt)
		res, err := GreedyWithLookahead(g, inst, src, tgt, d, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			t.Fatalf("lookahead routing failed to reach target (trial %d)", trial)
		}
	}
}

func TestGreedyWithLookaheadValidatesInput(t *testing.T) {
	g := gen.Path(10)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	rng := xrand.New(11)
	if _, err := GreedyWithLookahead(g, inst, -1, 5, distTo(g, 5), rng, Options{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := GreedyWithLookahead(g, inst, 0, 5, nil, rng, Options{}); err == nil {
		t.Fatal("nil distance source accepted")
	}
	if _, err := GreedyWithLookahead(g, inst, 0, 5, dist.NewField(make([]int32, 2)), rng, Options{}); err == nil {
		t.Fatal("short distance field accepted")
	}
}

func TestGreedyWithLookaheadNotWorseOnAverage(t *testing.T) {
	// Lookahead should help (or at least not catastrophically hurt) on a
	// long cycle with uniform augmentation.
	g := gen.Cycle(2000)
	rng := xrand.New(12)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	d := distTo(g, 1000)
	plain, look := 0, 0
	const trials = 30
	for i := 0; i < trials; i++ {
		rp, err := Greedy(g, inst, 0, 1000, d, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rl, err := GreedyWithLookahead(g, inst, 0, 1000, d, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rp.Reached || !rl.Reached {
			t.Fatal("routing failed")
		}
		plain += rp.Steps
		look += rl.Steps
	}
	if float64(look) > 1.5*float64(plain) {
		t.Fatalf("lookahead (%d) much worse than plain greedy (%d)", look, plain)
	}
}

func TestGreedyOnTheorem2PathScheme(t *testing.T) {
	// End-to-end: the Theorem 2 scheme on a path must route correctly.
	g := gen.Path(512)
	scheme := augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.OfPathGraph(g)
	})
	inst, err := scheme.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	d := distTo(g, 511)
	res, err := Greedy(g, inst, 0, 511, d, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("not reached")
	}
	if res.Steps > 511 {
		t.Fatalf("steps %d exceed path distance", res.Steps)
	}
}

func BenchmarkGreedyUniformPath(b *testing.B) {
	g := gen.Path(10000)
	inst, _ := augment.NewUniformScheme().Prepare(g)
	d := distTo(g, 9999)
	rng := xrand.New(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(g, inst, 0, 9999, d, rng, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyBallGrid(b *testing.B) {
	g := gen.Grid2D(100, 100)
	inst, _ := augment.NewBallScheme().Prepare(g)
	d := distTo(g, graph.NodeID(g.N()-1))
	rng := xrand.New(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(g, inst, 0, graph.NodeID(g.N()-1), d, rng, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// plateauSource reports every node at the same positive distance from the
// target (except the target itself) — the worst case of approximate
// steering, where no neighbour ever looks strictly closer.
type plateauSource struct{ t graph.NodeID }

func (p plateauSource) Dist(u, _ graph.NodeID) int32 {
	if u == p.t {
		return 0
	}
	return 5
}

// TestGreedyStuckUnderApproximateSteeringStopsEarly pins the degraded-mode
// contract: steering by a distance source that plateaus must terminate
// immediately with Reached false instead of burning the 4n step budget in
// place.
func TestGreedyStuckUnderApproximateSteeringStopsEarly(t *testing.T) {
	g := gen.Path(64)
	inst, _ := augment.NewNoAugmentation().Prepare(g)
	res, err := Greedy(g, inst, 0, 63, plateauSource{t: 63}, xrand.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached {
		t.Fatal("plateau source cannot reach the target")
	}
	if res.Steps != 0 {
		t.Fatalf("stuck route took %d steps, want 0 (early exit)", res.Steps)
	}
	res, err = GreedyWithLookahead(g, inst, 0, 63, plateauSource{t: 63}, xrand.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached || res.Steps != 0 {
		t.Fatalf("lookahead stuck route: %+v, want 0 steps", res)
	}
}

// TestGreedySteersByLandmarkBounds exercises the serve layer's last-ladder
// tier end to end at the routing level: landmark upper bounds are not
// exact, but with enough landmarks on a tree they still route, and with a
// landmark at every node they are exact and must reach.
func TestGreedySteersByLandmarkBounds(t *testing.T) {
	g := gen.RandomTree(200, xrand.New(5))
	inst, _ := augment.NewNoAugmentation().Prepare(g)
	// k = n: every node is a landmark, bounds are exact, routing must work
	// exactly like BFS-field steering.
	exactLm := dist.NewLandmarkOracle(g, g.N(), xrand.New(7))
	rng := xrand.New(9)
	for i := 0; i < 20; i++ {
		s := graph.NodeID(rng.Intn(g.N()))
		tt := graph.NodeID(rng.Intn(g.N()))
		res, err := Greedy(g, inst, s, tt, exactLm, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			t.Fatalf("exact landmark steering failed to reach (%d -> %d)", s, tt)
		}
		if want := g.BFS(tt)[s]; int32(res.Steps) != want {
			t.Fatalf("exact landmark steering took %d steps for distance %d", res.Steps, want)
		}
	}
	// Sparse landmarks: answers are upper bounds; routing must terminate
	// without error and never report Reached falsely.
	sparse := dist.NewLandmarkOracle(g, 8, xrand.New(7))
	for i := 0; i < 20; i++ {
		s := graph.NodeID(rng.Intn(g.N()))
		tt := graph.NodeID(rng.Intn(g.N()))
		res, err := Greedy(g, inst, s, tt, sparse, rng, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached && len(res.Path) > 0 && res.Path[len(res.Path)-1] != tt {
			t.Fatalf("claimed reached but path ends at %d, not %d", res.Path[len(res.Path)-1], tt)
		}
	}
}
