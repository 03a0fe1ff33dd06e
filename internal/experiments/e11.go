package experiments

import (
	"fmt"
	"math"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/scenario"
)

// E11 is the large-n mode: the regime where the paper's separations become
// visible.  The Õ(n^{1/3}) ball scheme, the Θ(√n) uniform (matrix-U)
// scheme and Kleinberg's harmonic scheme are only clearly separable from
// one another well beyond n = 10^4 — but classic field-backed routing needs
// an O(n) BFS distance field per target, capping experiments at small n.
// On vertex-transitive structured families (2D tori, hypercubes) both
// sides of a trial are analytic: distances come from the family's
// closed-form metric (dist.Source, O(1) per query, no field) and contacts
// from profile-based samplers (augment.NewAnalyticBall / NewAnalyticHarmonic,
// O(1) per draw, no ball enumeration).  That drops the per-trial cost to
// O(route length) time and O(1) extra memory, which is what lets this
// sweep reach n >= 10^6 nodes even in a CI smoke run.
func E11() scenario.Spec {
	return scenario.Sweep{
		ID:       "E11",
		Title:    "Large-n mode: analytic oracles separate ball, uniform and harmonic at n up to 10^6",
		Claim:    "on 2D tori and hypercubes up to a million nodes, greedy diameter under the ball scheme scales clearly below the uniform scheme's ~n^{1/2} (approaching the Õ(n^{1/3}) bound), while harmonic r=2 is polylog on tori (Kleinberg) and far from universal on hypercubes",
		Families: []scenario.Family{scenario.Named("torus"), scenario.Named("hypercube")},
		Sizes:    []int{65536, 262144, 1048576},
		Schemes:  []scenario.SchemeRef{uniformScheme(), analyticBallScheme(), analyticHarmonicScheme(2)},
		Pairs:    4,
		Trials:   3,

		DetailTitle: "E11: million-node torus/hypercube sweep (analytic oracles, O(1) memory per distance query)",
		Columns: []scenario.Column{
			{Name: "sqrt(n)", Value: func(r scenario.CellResult) any {
				return math.Sqrt(float64(r.Est.N))
			}},
			{Name: "n^1/3", Value: func(r scenario.CellResult) any {
				return math.Cbrt(float64(r.Est.N))
			}},
			{Name: "gd/sqrt(n)", Value: func(r scenario.CellResult) any {
				return r.Est.GreedyDiameter / math.Sqrt(float64(r.Est.N))
			}},
		},
		FitTitle: "E11: fitted scaling exponents (greedy diameter ~ C*n^e)",
		FitNote: "expected shape: uniform e ~ 0.5 on both families; ball clearly below uniform (the Õ(n^{1/3}) " +
			"bound carries polylog factors, so the finite-size fit sits above 1/3); harmonic-r2 e ~ 0 (polylog) on " +
			"tori where the exponent matches the growth dimension",
	}.Spec()
}

// analyticBallScheme is the Theorem 4 ball scheme drawn through the
// family's vertex-transitive analytic metric — same contact law as
// ballScheme (the equality is tested), O(1) per draw at any n.
func analyticBallScheme() scenario.SchemeRef {
	return scenario.SchemeRef{Key: "ball-analytic", New: func(bg *scenario.BuiltGraph) (augment.Scheme, error) {
		t, err := transitiveMetric(bg)
		if err != nil {
			return nil, err
		}
		return augment.NewAnalyticBall(t), nil
	}}
}

// analyticHarmonicScheme is the distance-harmonic scheme with exponent r
// drawn through the family's vertex-transitive analytic metric.
func analyticHarmonicScheme(r float64) scenario.SchemeRef {
	key := fmt.Sprintf("harmonic-analytic-r%g", r)
	return scenario.SchemeRef{Key: key, New: func(bg *scenario.BuiltGraph) (augment.Scheme, error) {
		t, err := transitiveMetric(bg)
		if err != nil {
			return nil, err
		}
		return augment.NewAnalyticHarmonic(r, t), nil
	}}
}

func transitiveMetric(bg *scenario.BuiltGraph) (dist.Transitive, error) {
	t, ok := bg.Metric.(dist.Transitive)
	if !ok {
		return nil, fmt.Errorf("experiments: %s has no vertex-transitive analytic metric", bg.G.Name())
	}
	return t, nil
}
