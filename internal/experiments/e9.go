package experiments

import (
	"navaug/internal/augment"
	"navaug/internal/scenario"
)

// E9 measures the classical baseline the paper positions itself against:
// Kleinberg's distance-harmonic augmentation [13].  With the exponent tuned
// to the growth rate of the graph (r = 1 on the path/cycle, r = 2 on the 2D
// grid) it is polylogarithmic, but it is not universal — the same matrix
// applied to the wrong family degrades to a polynomial greedy diameter,
// whereas the Theorem 4 ball scheme stays sub-√n everywhere.
func E9() scenario.Spec {
	return scenario.Sweep{
		ID:       "E9",
		Title:    "Kleinberg harmonic baseline: excellent when tuned, not universal",
		Claim:    "harmonic-r is polylog when r matches the family's dimension and polynomial otherwise; the ball scheme is uniformly sub-√n",
		Families: []scenario.Family{scenario.Named("path"), scenario.Named("grid")},
		Sizes:    []int{512, 1024, 2048, 4096, 8192},
		Schemes: []scenario.SchemeRef{
			scenario.Scheme(augment.NewHarmonicScheme(1)),
			scenario.Scheme(augment.NewHarmonicScheme(2)),
			ballScheme(),
		},
		Pairs:  6,
		Trials: 4,

		DetailTitle: "E9: harmonic schemes vs the ball scheme",
		FitTitle:    "E9: fitted scaling exponents",
		FitNote: "Kleinberg [13]: harmonic-r1 matches the path's dimension and harmonic-r2 the grid's; the " +
			"mismatch is dramatic on the path (harmonic-r2 degrades to a clearly polynomial exponent) and milder " +
			"on the grid at these sizes, while the ball scheme stays below ~0.5 everywhere without any tuning",
	}.Spec()
}
