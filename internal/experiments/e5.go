package experiments

import (
	"math"

	"navaug/internal/report"
	"navaug/internal/scenario"
)

// E5 verifies the other half of Theorem 2's guarantee: on graphs whose
// pathshape is large (2D grids, sparse random graphs decomposed with the
// generic BFS-layer construction) the uniform component of M keeps greedy
// routing within O(√n) — the scheme never does substantially worse than the
// plain uniform scheme.
func E5() scenario.Spec {
	return scenario.Sweep{
		ID:       "E5",
		Title:    "Theorem 2 scheme preserves the O(√n) fallback on large-pathshape graphs",
		Claim:    "on grids and sparse random graphs, the (M,L) greedy diameter stays within a small constant factor of the uniform scheme's (and of ~3√n)",
		Families: []scenario.Family{scenario.Named("grid"), scenario.Named("gnp")},
		Sizes:    []int{1024, 2048, 4096, 8192, 16384},
		Schemes:  []scenario.SchemeRef{theorem2BFSScheme(), uniformScheme()},
		Pairs:    10,
		Trials:   6,

		DetailTitle: "E5: Theorem 2 scheme on large-pathshape graphs",
		Columns: []scenario.Column{
			{Name: "sqrt(n)", Value: func(r scenario.CellResult) any {
				return math.Sqrt(float64(r.Est.N))
			}},
			{Name: "gd/sqrt(n)", Value: func(r scenario.CellResult) any {
				return r.Est.GreedyDiameter / math.Sqrt(float64(r.Est.N))
			}},
		},
		Finalize: func(res []scenario.CellResult, tables []*report.Table) {
			maxRatio := 0.0
			for _, r := range res {
				if r.Cell.Scheme.Key != "theorem2-bfs" {
					continue
				}
				if ratio := r.Est.GreedyDiameter / math.Sqrt(float64(r.Est.N)); ratio > maxRatio {
					maxRatio = ratio
				}
			}
			tables[0].AddNote("Theorem 2 analysis: when √n ≤ ps(G)·log² n the uniform half of M alone bounds the "+
				"expected number of steps by ~3√n; the largest observed gd/√n ratio for the (M,L) scheme in this "+
				"run is %.2f", maxRatio)
		},
	}.Spec()
}
