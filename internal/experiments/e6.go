package experiments

import (
	"fmt"

	"navaug/internal/augment"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/stats"
)

// E6 reproduces Theorem 3: matrix-based augmentation of the path with labels
// of only ε·log n bits (i.e. k = n^ε distinct labels) cannot achieve a
// sub-polynomial greedy diameter — the bound is Ω(n^β) for every
// β < (1-ε)/3.  The experiment measures the natural block-harmonic scheme
// with k labels and fits its scaling exponent, which should decrease towards
// 0 as ε grows and always sit above the theorem's lower-bound exponent.
func E6() scenario.Spec {
	pathFamily := scenario.Named("path")
	epsilons := []float64{0, 0.25, 0.5, 0.75}
	return scenario.Spec{
		ID:    "E6",
		Title: "Compressed labels force polynomial greedy diameter on the path (Theorem 3)",
		Claim: "with k = n^ε labels the measured scaling exponent stays ≥ (1-ε)/3 and decreases as ε grows",
		CellsFn: func(cfg Config) ([]scenario.Cell, error) {
			sizes := cfg.ScaleSizes(1024, 2048, 4096, 8192)
			var cells []scenario.Cell
			for _, eps := range epsilons {
				eps := eps
				for _, n := range sizes {
					n := n
					cells = append(cells, scenario.Cell{
						Graph: pathFamily.Ref(n),
						Scheme: scenario.SchemeRef{
							Key: fmt.Sprintf("compressed-eps%g", eps),
							New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
								return augment.NewCompressedLabelPathScheme(n, eps)
							},
						},
						Pairs:  8,
						Trials: 6,
						Data:   eps,
					})
				}
			}
			return cells, nil
		},
		RenderFn: func(cfg Config, res []scenario.CellResult) ([]*report.Table, error) {
			detail := report.NewTable("E6: block-harmonic scheme on the path with n^ε labels",
				"epsilon", "n", "labels_k", "greedy_diam", "mean_steps", "ci95")
			summary := report.NewTable("E6: fitted exponent vs the Theorem 3 lower bound",
				"epsilon", "fitted_exponent", "thm3_lower_bound_(1-eps)/3", "R2")
			for _, eps := range epsilons {
				var xs, ys []float64
				for _, r := range res {
					if r.Cell.Data.(float64) != eps {
						continue
					}
					k := augment.LabelsForGraphSize(r.Est.N, eps)
					detail.AddRow(eps, r.Est.N, k, r.Est.GreedyDiameter, r.Est.MeanSteps, r.Est.CI95)
					xs = append(xs, float64(r.Est.N))
					ys = append(ys, r.Est.GreedyDiameter)
				}
				fit, err := stats.PowerLaw(xs, ys)
				if err != nil {
					return nil, fmt.Errorf("E6: eps=%g: %w", eps, err)
				}
				summary.AddRow(eps, fit.Exponent, augment.Theorem3LowerBoundExponent(eps), fit.R2)
			}
			summary.AddNote("Theorem 3: any matrix scheme with ε·log n-bit labels has greedy diameter Ω(n^β) for all " +
				"β < (1-ε)/3 on the path; measured exponents must stay above that line and shrink as ε grows")
			return []*report.Table{detail, summary}, nil
		},
	}
}
