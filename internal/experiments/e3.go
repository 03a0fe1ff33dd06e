package experiments

import (
	"math"

	"navaug/internal/scenario"
)

// E3 reproduces the first half of Corollary 1: the Theorem 2 scheme (M, L),
// with the labeling derived from a centroid path decomposition, yields a
// polylogarithmic (O(log³ n)) greedy diameter on trees, while the uniform
// scheme stays polynomial on the same instances.
//
// The tree families are chosen so that the uniform baseline genuinely needs
// ~√n steps (long paths inside the tree), which is where the Corollary 1
// separation shows: on shallow bushy trees every scheme is trivially fast
// because the diameter itself is small.
func E3() scenario.Spec {
	log2cubed := func(n int) float64 { return math.Pow(math.Log2(float64(n)), 3) }
	return scenario.Sweep{
		ID:    "E3",
		Title: "Theorem 2 scheme is polylog on trees",
		Claim: "greedy diameter of (M,L) on trees stays below the log³ n envelope and grows with a visibly smaller exponent than the uniform scheme's ~0.5, with the gap widening as n grows",
		Families: []scenario.Family{
			scenario.Named("caterpillar"), scenario.Named("spider"), scenario.Named("random-tree"),
		},
		// The polylog-vs-√n separation needs larger sizes than the other
		// sweeps because the O(log³ n) bound carries a sizeable constant; the
		// sweep is still cheap because contact draws under (M, L) cost
		// O(log n).
		Sizes:   []int{4096, 16384, 65536, 262144},
		Schemes: []scenario.SchemeRef{theorem2TreeScheme(), uniformScheme()},
		Pairs:   10,
		Trials:  6,

		DetailTitle: "E3: trees, Theorem 2 scheme vs uniform",
		Columns: []scenario.Column{
			{Name: "log2^3(n)", Value: func(r scenario.CellResult) any {
				return log2cubed(r.Est.N)
			}},
			{Name: "gd/log2^3(n)", Value: func(r scenario.CellResult) any {
				return r.Est.GreedyDiameter / log2cubed(r.Est.N)
			}},
		},
		FitTitle: "E3: fitted power-law exponents (theorem2 ≪ uniform ≈ 0.5)",
		FitNote: "Corollary 1: trees have pathshape O(log n), so (M,L) gives O(log³ n) greedy diameter; " +
			"its fitted power-law exponent should be far below the uniform scheme's ~0.5",
	}.Spec()
}
