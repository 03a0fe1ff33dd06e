package experiments

import (
	"math"

	"navaug/internal/augment"
	"navaug/internal/scenario"
)

// E12 is the large-n universality sweep: the paper's headline claim is that
// the augmentation schemes work on *any* graph, yet before the 2-hop-cover
// oracle only closed-form families (E11's tori and hypercubes) scaled past
// n ~ 10^4 — unstructured graphs have no analytic metric.  E12 sweeps the
// three universal schemes over six unstructured random families.  Distances
// come from the run's oracle policy (default auto): the exact 2-hop-cover
// oracle (dist.TwoHop) where labels stay small, per-target BFS fields
// where they do not — the estimates are byte-identical either way, which
// the CI determinism smoke pins.
//
// The families are chosen to straddle the 2-hop feasibility boundary, and
// their measured label sizes are part of the experiment's story (recorded
// in BENCH_experiments.json):
//
//   - plaw-tree (preferential attachment, m=1) and ratree (random
//     recursive tree): tree-like with skewed degrees; labels stay polylog
//     (avg ~8 and ~23 at n = 2^20) and the sweep reaches 2^20 nodes.
//   - powerlaw (preferential attachment, m=2): hub-dominated but cyclic;
//     labels grow ~n^{0.45} (avg 92 at n = 2^16), workable to ~2^18.
//   - ws (Watts–Strogatz), gnp (connected G(n,p)), regular (random
//     4-regular): expander-like, 2-hop covers inherently grow ~sqrt(n)
//     (avg 390-1500 at n = 2^14).  The bit-parallel batch engine and the
//     packed label representation moved the build wall (a regular-graph
//     label build that took ~3 min now takes ~35 s, see
//     BENCH_experiments.json twohop_builds), so ws and gnp sweep to 2^17;
//     above the auto label budget the policy still falls back to BFS
//     fields at bounded cost, identically.
func E12() scenario.Spec {
	return scenario.Sweep{
		ID:    "E12",
		Title: "Large-n universality: unstructured families up to 2^20 nodes via the exact 2-hop-cover oracle",
		Claim: "greedy diameters keep the paper's universal shape on unstructured graphs as n grows: " +
			"uniform stays ~n^{1/2} while the ball scheme scales clearly below it on every family, " +
			"with no structured metric to lean on — distances come from exact 2-hop labels (or BFS fields, identically)",
		Families: e12Families(),
		Sizes:    []int{4096, 16384, 65536, 131072, 262144, 1048576},
		Schemes:  []scenario.SchemeRef{uniformScheme(), ballScheme(), scenario.Scheme(augment.NewHarmonicScheme(2))},
		Pairs:    4,
		Trials:   3,
		// Expander-like families are capped: their 2-hop labels grow
		// ~sqrt(n) (the documented infeasibility half of the experiment)
		// and their per-draw ball/harmonic sampling has no analytic
		// shortcut either.  ws and gnp run past 2^16 since the bit-parallel
		// + packed-label build moved the wall; regular (the densest cover,
		// ~1500 avg entries already at 2^14) stays at 2^16.  The tree-like
		// families carry the sweep to 2^20.
		CellFilter: func(family, _ string, n int) bool {
			switch family {
			case "plaw-tree", "ratree":
				return true
			case "powerlaw":
				return n <= 262144
			case "ws", "gnp":
				return n <= 131072
			default:
				return n <= 65536
			}
		},
		DetailTitle: "E12: universality sweep on unstructured families (exact 2-hop-cover oracle above the auto threshold)",
		Columns: []scenario.Column{
			{Name: "sqrt(n)", Value: func(r scenario.CellResult) any {
				return math.Sqrt(float64(r.Est.N))
			}},
			{Name: "gd/sqrt(n)", Value: func(r scenario.CellResult) any {
				return r.Est.GreedyDiameter / math.Sqrt(float64(r.Est.N))
			}},
		},
		FitTitle: "E12: fitted scaling exponents (greedy diameter ~ C*n^e)",
		FitNote: "expected shape: uniform e ~ 0.5 on every family (the universal Theorem 1 bound is metric-free); " +
			"ball clearly below uniform everywhere (Theorem 4's Õ(n^{1/3}) holds on any graph); harmonic-r2 has no " +
			"universal guarantee — its exponent tracks the family's growth structure and degrades off it",
	}.Spec()
}

// e12Families are E12's unstructured families.  E13 churns the same
// names, so its base instances are the very graphs E12 measures at the
// same size.
func e12Families() []scenario.Family {
	return []scenario.Family{
		scenario.Named("ws"), scenario.Named("gnp"), scenario.Named("regular"),
		scenario.Named("powerlaw"), scenario.Named("plaw-tree"), scenario.Named("ratree"),
	}
}
