package sim

import (
	"math"
	"sync"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/stats"
	"navaug/internal/xrand"
)

func TestEstimateNoAugmentationEqualsDistance(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Path(200)
	cfg := Config{
		FixedPairs: []Pair{{Source: 0, Target: 199}, {Source: 10, Target: 60}},
		Trials:     3,
		Seed:       1,
	}
	est, err := e.Estimate(g, augment.NewNoAugmentation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.GreedyDiameter != 199 {
		t.Fatalf("greedy diameter %v, want 199", est.GreedyDiameter)
	}
	if est.MeanSteps != (199+50)/2.0 {
		t.Fatalf("mean steps %v", est.MeanSteps)
	}
	if est.MeanLongLinks != 0 {
		t.Fatal("no-augmentation run reported long links")
	}
	if est.Samples != 6 {
		t.Fatalf("samples %d", est.Samples)
	}
	for _, ps := range est.PairStats {
		if ps.Failed != 0 {
			t.Fatal("failures reported")
		}
	}
}

func TestEstimateDeterministicAcrossWorkerCounts(t *testing.T) {
	g := gen.Grid2D(20, 20)
	cfg := Config{Pairs: 8, Trials: 4, Seed: 99}
	e1, err := newTestEngine(t, 1).Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := newTestEngine(t, 8).Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.MeanSteps != e8.MeanSteps || e1.GreedyDiameter != e8.GreedyDiameter {
		t.Fatalf("results depend on worker count: %v vs %v", e1.MeanSteps, e8.MeanSteps)
	}
}

func TestEstimateDeterministicAcrossRuns(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Cycle(500)
	cfg := Config{Pairs: 6, Trials: 5, Seed: 1234}
	a, err := e.Estimate(g, augment.NewBallScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Estimate(g, augment.NewBallScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanSteps != b.MeanSteps || a.GreedyDiameter != b.GreedyDiameter {
		t.Fatal("same seed produced different estimates")
	}
}

func TestEstimateDifferentSeedsDiffer(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Cycle(500)
	a, _ := e.Estimate(g, augment.NewUniformScheme(), Config{Pairs: 6, Trials: 5, Seed: 1})
	b, _ := e.Estimate(g, augment.NewUniformScheme(), Config{Pairs: 6, Trials: 5, Seed: 2})
	if a.MeanSteps == b.MeanSteps {
		t.Fatal("different seeds produced byte-identical estimates (suspicious)")
	}
}

func TestEstimateRejectsTinyGraph(t *testing.T) {
	e := newTestEngine(t, 0)
	if _, err := e.Estimate(gen.Path(1), augment.NewUniformScheme(), Config{}); err == nil {
		t.Fatal("single-node graph accepted")
	}
}

func TestEstimateRejectsBadFixedPairs(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Path(10)
	cfg := Config{FixedPairs: []Pair{{Source: 0, Target: 50}}}
	if _, err := e.Estimate(g, augment.NewUniformScheme(), cfg); err == nil {
		t.Fatal("out-of-range fixed pair accepted")
	}
}

func TestEstimateDisconnectedPairCounted(t *testing.T) {
	// A disconnected pair is an expected outcome (churned graphs fall
	// apart), so it must be counted as unreachable — not an error, which is
	// what an earlier version did and which made any churn run with a split
	// component abort wholesale.
	e := newTestEngine(t, 0)
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	cfg := Config{FixedPairs: []Pair{{Source: 0, Target: 3}}}
	est, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatalf("disconnected pair errored: %v", err)
	}
	if est.Unreachable != 1 || !est.PairStats[0].Unreachable {
		t.Fatalf("disconnected pair not counted: %+v", est)
	}
}

func TestEstimatePropagatesPrepareError(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Cycle(10)
	bad := augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.OfPathGraph(g) // cycle is not a path -> error
	})
	if _, err := e.Estimate(g, bad, Config{Pairs: 2, Trials: 1}); err == nil {
		t.Fatal("Prepare error not propagated")
	}
}

func TestExtremalPairIncluded(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Path(300)
	cfg := Config{Pairs: 4, Trials: 1, Seed: 5}
	est, err := e.Estimate(g, augment.NewNoAugmentation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the extremal pair included and no augmentation, the greedy
	// diameter estimate must be the true diameter 299.
	if est.GreedyDiameter != 299 {
		t.Fatalf("extremal pair missing: greedy diameter %v", est.GreedyDiameter)
	}
}

func TestUniformSchemeSqrtNShape(t *testing.T) {
	// The core sanity check behind E1: on a long cycle, uniform augmentation
	// needs far fewer steps than the diameter but far more than polylog.
	e := newTestEngine(t, 0)
	g := gen.Cycle(4000)
	cfg := Config{Pairs: 10, Trials: 4, Seed: 7}
	est, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sqrtN := math.Sqrt(4000)
	if est.GreedyDiameter < 0.3*sqrtN {
		t.Fatalf("uniform greedy diameter %v suspiciously below √n=%v", est.GreedyDiameter, sqrtN)
	}
	if est.GreedyDiameter > 8*sqrtN {
		t.Fatalf("uniform greedy diameter %v far above O(√n)=%v", est.GreedyDiameter, sqrtN)
	}
}

func TestBallSchemeBeatsUniformOnLargePath(t *testing.T) {
	// The headline Theorem 4 effect, at small scale: on a long path the ball
	// scheme should need noticeably fewer steps than the uniform scheme.
	g := gen.Path(8000)
	cfg := Config{Pairs: 8, Trials: 3, Seed: 11, DistFields: dist.NewFieldCache(g, 0)}
	ests := estimateEach(t, newTestEngine(t, 0), g, cfg, augment.NewUniformScheme(), augment.NewBallScheme())
	uniform, ball := ests[0], ests[1]
	if ball.GreedyDiameter >= uniform.GreedyDiameter {
		t.Fatalf("ball scheme (%v) did not beat uniform (%v) on n=8000 path",
			ball.GreedyDiameter, uniform.GreedyDiameter)
	}
}

func TestSharedDistFieldsMatchPrivate(t *testing.T) {
	e := newTestEngine(t, 0)
	// A caller-supplied field cache must leave results untouched (fields are
	// deterministic) while amortising the per-target BFS across schemes.
	g := gen.Grid2D(15, 15)
	cfg := Config{Pairs: 6, Trials: 3, Seed: 41}
	private, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.DistFields = dist.NewFieldCache(g, 0)
	cached, err := e.Estimate(g, augment.NewUniformScheme(), shared)
	if err != nil {
		t.Fatal(err)
	}
	if private.MeanSteps != cached.MeanSteps || private.GreedyDiameter != cached.GreedyDiameter {
		t.Fatalf("shared cache changed results: %v vs %v", private.MeanSteps, cached.MeanSteps)
	}
	if shared.DistFields.Len() == 0 {
		t.Fatal("shared cache was never used")
	}
	// A second run over the same pairs must not grow the cache.
	before := shared.DistFields.Len()
	if _, err := e.Estimate(g, augment.NewBallScheme(), shared); err != nil {
		t.Fatal(err)
	}
	if shared.DistFields.Len() != before {
		t.Fatalf("cache grew from %d to %d on identical pairs", before, shared.DistFields.Len())
	}
}

func TestCompareSchemesOrderAndNames(t *testing.T) {
	g := gen.Grid2D(10, 10)
	cfg := Config{Pairs: 3, Trials: 2, Seed: 3, DistFields: dist.NewFieldCache(g, 0)}
	ests := estimateEach(t, newTestEngine(t, 0), g, cfg, augment.NewNoAugmentation(), augment.NewUniformScheme())
	if len(ests) != 2 || ests[0].Scheme != "none" || ests[1].Scheme != "uniform" {
		t.Fatalf("unexpected comparison output: %+v", ests)
	}
	if ests[0].N != 100 || ests[0].GraphName == "" {
		t.Fatal("graph metadata missing")
	}
}

// TestSweepAndFit runs a size sweep on one engine with the per-size seed
// rule of examples/barrier and fits the scaling exponent.
func TestSweepAndFit(t *testing.T) {
	e := newTestEngine(t, 0)
	cfg := Config{Pairs: 2, Trials: 1}
	var x, y []float64
	for i, n := range []int{200, 400, 800, 1600} {
		cfg.Seed = 17 + uint64(i)*0x9e3779b97f4a7c15
		est, err := e.Estimate(gen.Path(n), augment.NewNoAugmentation(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		x = append(x, float64(est.N))
		y = append(y, est.GreedyDiameter)
	}
	fit, err := stats.PowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Without augmentation the greedy diameter is the diameter = n-1, so the
	// fitted exponent must be essentially 1.
	if math.Abs(fit.Exponent-1) > 0.05 {
		t.Fatalf("no-augmentation sweep exponent %v, want ~1", fit.Exponent)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Pairs != 16 || c.Trials != 8 {
		t.Fatalf("defaults %+v", c)
	}
}

func TestEngineReuseAcrossEstimations(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	cfg := Config{Pairs: 4, Trials: 2, Seed: 9}
	small, err := e.Estimate(gen.Path(100), augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.Estimate(gen.Grid2D(12, 12), augment.NewBallScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := newTestEngine(t, 2).Estimate(gen.Path(100), augment.NewUniformScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.MeanSteps != oneShot.MeanSteps || small.GreedyDiameter != oneShot.GreedyDiameter {
		t.Fatalf("engine reuse changed results: %v vs %v", small.MeanSteps, oneShot.MeanSteps)
	}
	if big.N != 144 {
		t.Fatalf("second estimation on reused engine broken: %+v", big)
	}
}

func TestEngineConcurrentEstimations(t *testing.T) {
	// One pool, several concurrent estimations (the scenario-runner shape):
	// results must match the serial ones exactly.
	e := NewEngine(3)
	defer e.Close()
	cfg := Config{Pairs: 5, Trials: 3, Seed: 77}
	graphs := []*graph.Graph{gen.Path(300), gen.Cycle(300), gen.Grid2D(17, 17)}
	want := make([]*Estimate, len(graphs))
	for i, g := range graphs {
		est, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	got := make([]*Estimate, len(graphs))
	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			got[i], errs[i] = e.Estimate(g, augment.NewUniformScheme(), cfg)
		}(i, g)
	}
	wg.Wait()
	for i := range graphs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].MeanSteps != want[i].MeanSteps || got[i].GreedyDiameter != want[i].GreedyDiameter {
			t.Fatalf("concurrent estimation %d diverged: %v vs %v", i, got[i].MeanSteps, want[i].MeanSteps)
		}
	}
}

func TestAdaptiveStopsEarlyOnZeroVariance(t *testing.T) {
	e := newTestEngine(t, 0)
	// Without augmentation every trial of a pair takes exactly dist(s,t)
	// steps, so the CI collapses after the first batch and the adaptive
	// schedule must stop at the base budget instead of the cap.
	g := gen.Path(200)
	cfg := Config{
		FixedPairs: []Pair{{Source: 0, Target: 199}, {Source: 10, Target: 60}},
		Trials:     3,
		MaxTrials:  96,
		TargetCI:   0.05,
		Seed:       1,
	}
	est, err := e.Estimate(g, augment.NewNoAugmentation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Adaptive || est.TargetCI != 0.05 {
		t.Fatalf("adaptive metadata missing: %+v", est)
	}
	if est.Samples != 6 {
		t.Fatalf("zero-variance pairs should stop at 2 pairs x 3 trials, spent %d", est.Samples)
	}
	if est.GreedyDiameter != 199 {
		t.Fatalf("greedy diameter %v, want 199", est.GreedyDiameter)
	}
}

func TestAdaptiveSpendsMoreOnNoisyPairs(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Cycle(2000)
	base := Config{Pairs: 6, Trials: 4, Seed: 3}
	fixed, err := e.Estimate(g, augment.NewUniformScheme(), base)
	if err != nil {
		t.Fatal(err)
	}
	tight := base
	tight.TargetCI = 0.05
	tight.MaxTrials = 256
	adaptive, err := e.Estimate(g, augment.NewUniformScheme(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Samples <= fixed.Samples {
		t.Fatalf("tight CI target should need more trials than the %d fixed ones, got %d",
			fixed.Samples, adaptive.Samples)
	}
	for _, ps := range adaptive.PairStats {
		ci := ps.Steps.CI95()
		if ps.Steps.Count < 256 && ci > 0.05*math.Max(1, ps.Steps.Mean)+1e-9 {
			t.Fatalf("pair %+v stopped at %d trials with CI %v above target", ps.Pair, ps.Steps.Count, ci)
		}
	}
}

func TestAdaptiveDeterministicAcrossWorkerCounts(t *testing.T) {
	g := gen.Grid2D(20, 20)
	cfg := Config{Pairs: 6, Trials: 3, Seed: 99, TargetCI: 0.1, MaxTrials: 48}
	e1, err := newTestEngine(t, 1).Estimate(g, augment.NewBallScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e7, err := newTestEngine(t, 7).Estimate(g, augment.NewBallScheme(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.MeanSteps != e7.MeanSteps || e1.GreedyDiameter != e7.GreedyDiameter || e1.Samples != e7.Samples {
		t.Fatalf("adaptive results depend on worker count: %v/%d vs %v/%d",
			e1.MeanSteps, e1.Samples, e7.MeanSteps, e7.Samples)
	}
}

// TestEngineScratchReuseAcrossManySizes exercises the per-worker scratch
// map past its eviction cap: one long-lived engine serves estimations over
// more distinct graph sizes than maxWorkerScratches, interleaved and
// repeated so evicted sizes are revisited.  Scratch identity (fresh,
// reused, or rebuilt after eviction) must never affect results — every
// estimate must equal the one a fresh engine computes.
func TestEngineScratchReuseAcrossManySizes(t *testing.T) {
	e := NewEngine(1) // one worker so every size shares a single scratch map
	defer e.Close()
	cfg := Config{Pairs: 3, Trials: 2, Seed: 5}
	sizes := []int{50, 64, 80, 100, 128, 150, 180, 200, 230, 260}
	if len(sizes) <= maxWorkerScratches {
		t.Fatalf("test needs more sizes (%d) than the scratch cap (%d)", len(sizes), maxWorkerScratches)
	}
	want := make([]*Estimate, len(sizes))
	for i, n := range sizes {
		est, err := newTestEngine(t, 1).Estimate(gen.Cycle(n), augment.NewUniformScheme(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	// Two passes: the second revisits sizes whose scratches were evicted
	// during the first.
	for pass := 0; pass < 2; pass++ {
		for i, n := range sizes {
			got, err := e.Estimate(gen.Cycle(n), augment.NewUniformScheme(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.MeanSteps != want[i].MeanSteps || got.GreedyDiameter != want[i].GreedyDiameter {
				t.Fatalf("pass %d size %d: scratch reuse changed results: %v vs %v",
					pass, n, got.MeanSteps, want[i].MeanSteps)
			}
		}
	}
}

// TestDistSourceMatchesFieldBacked: routing through an analytic dist.Source
// must reproduce the field-backed estimates exactly, pair stats included.
func TestDistSourceMatchesFieldBacked(t *testing.T) {
	e := newTestEngine(t, 0)
	g := gen.Torus2D(16, 16)
	base := Config{Pairs: 5, Trials: 3, Seed: 21}
	fieldBacked, err := e.Estimate(g, augment.NewUniformScheme(), base)
	if err != nil {
		t.Fatal(err)
	}
	withSource := base
	withSource.DistSource = gen.Torus2DMetric(16, 16)
	analytic, err := e.Estimate(g, augment.NewUniformScheme(), withSource)
	if err != nil {
		t.Fatal(err)
	}
	if fieldBacked.MeanSteps != analytic.MeanSteps || fieldBacked.GreedyDiameter != analytic.GreedyDiameter {
		t.Fatalf("analytic source changed results: %v vs %v", analytic.MeanSteps, fieldBacked.MeanSteps)
	}
	for i := range fieldBacked.PairStats {
		fp, ap := fieldBacked.PairStats[i], analytic.PairStats[i]
		if fp.Dist != ap.Dist || fp.Steps.Mean != ap.Steps.Mean {
			t.Fatalf("pair %d diverged between source kinds: %+v vs %+v", i, fp, ap)
		}
	}
}

// TestEstimatePolicyEquivalence pins sim.Config.Policy: the same estimation
// through per-target BFS fields, the 2-hop-cover oracle, the auto resolver
// and (on a family with a closed form) the analytic metric must agree on
// every number — all tiers are exact, so the policy is a pure cost knob.
func TestEstimatePolicyEquivalence(t *testing.T) {
	e := newTestEngine(t, 0)
	rng := xrand.New(31)
	graphs := []*graph.Graph{
		gen.PowerLawAttachment(600, 2, rng), // no analytic metric: twohop vs fields
		gen.Torus2D(16, 16),                 // analytic metric available
	}
	for _, g := range graphs {
		var want *Estimate
		for _, policy := range []dist.SourcePolicy{dist.PolicyField, dist.PolicyTwoHop, dist.PolicyAuto, dist.PolicyAnalytic} {
			cfg := Config{Pairs: 6, Trials: 3, Seed: 9, Policy: policy}
			est, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
			if err != nil {
				t.Fatalf("%v under %q: %v", g, policy, err)
			}
			if want == nil {
				want = est
				continue
			}
			if est.GreedyDiameter != want.GreedyDiameter || est.MeanSteps != want.MeanSteps ||
				est.CI95 != want.CI95 || est.MeanLongLinks != want.MeanLongLinks || est.Samples != want.Samples {
				t.Fatalf("%v: estimate under %q diverges from the field-backed estimate:\n%+v\nvs\n%+v",
					g, policy, est, want)
			}
			for i := range want.PairStats {
				if est.PairStats[i].Dist != want.PairStats[i].Dist {
					t.Fatalf("%v: pair %d distance %d under %q, want %d",
						g, i, est.PairStats[i].Dist, policy, want.PairStats[i].Dist)
				}
			}
		}
	}
}

// TestDisconnectedPairCountedNotErrored pins the disconnection contract
// (internal/graph/ops.go): a sampled pair whose endpoints sit in different
// components runs no trials, is reported in the Unreachable counters, and
// never errors the estimation or skews the means of the reachable pairs.
func TestDisconnectedPairCountedNotErrored(t *testing.T) {
	e := newTestEngine(t, 0)
	// Two components: a path 0..4 and a path 5..9.
	b := graph.NewBuilder(10)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		b.AddEdge(graph.NodeID(5+i), graph.NodeID(6+i))
	}
	g := b.Build()
	cfg := Config{
		FixedPairs: []Pair{
			{Source: 0, Target: 4}, // reachable, distance 4
			{Source: 0, Target: 7}, // cross-component
			{Source: 5, Target: 9}, // reachable, distance 4
		},
		Trials: 2,
		Seed:   3,
	}
	est, err := e.Estimate(g, augment.NewNoAugmentation(), cfg)
	if err != nil {
		t.Fatalf("disconnected pair errored the run: %v", err)
	}
	if est.Unreachable != 1 {
		t.Fatalf("Unreachable = %d, want 1", est.Unreachable)
	}
	ps := est.PairStats[1]
	if !ps.Unreachable || ps.Dist != graph.Unreachable || ps.Steps.Count != 0 || ps.Failed != 0 {
		t.Fatalf("unreachable pair misreported: %+v", ps)
	}
	// The reachable pairs' statistics are untouched by the dead pair.
	if est.GreedyDiameter != 4 || est.MeanSteps != 4 {
		t.Fatalf("means skewed by unreachable pair: gd=%v mean=%v", est.GreedyDiameter, est.MeanSteps)
	}
	if est.Samples != 4 {
		t.Fatalf("Samples = %d, want 4 (2 trials x 2 reachable pairs)", est.Samples)
	}
	for _, p := range []PairStats{est.PairStats[0], est.PairStats[2]} {
		if p.Unreachable || p.Steps.Mean != 4 {
			t.Fatalf("reachable pair misreported: %+v", p)
		}
	}
}

// newTestEngine starts an engine with the given pool size and closes it
// when the test ends.
func newTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e := NewEngine(workers)
	t.Cleanup(e.Close)
	return e
}

// estimateEach estimates every scheme on g with the same configuration on
// one engine, returning the estimates in scheme order.
func estimateEach(t *testing.T, e *Engine, g *graph.Graph, cfg Config, schemes ...augment.Scheme) []*Estimate {
	t.Helper()
	out := make([]*Estimate, 0, len(schemes))
	for _, s := range schemes {
		est, err := e.Estimate(g, s, cfg)
		if err != nil {
			t.Fatalf("scheme %s: %v", s.Name(), err)
		}
		out = append(out, est)
	}
	return out
}
