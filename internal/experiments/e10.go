package experiments

import (
	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/graph"
	"navaug/internal/report"
	"navaug/internal/scenario"
)

// E10 runs the construction ablations: each design ingredient of the
// paper's two constructions is removed in turn to show it is load bearing.
//
//	(a) Theorem 2 without the uniform half of M: loses the √n fallback on
//	    large-pathshape graphs (grids), while remaining fine on trees.
//	(b) Theorem 4 with a single fixed scale instead of mixing all ⌈log n⌉
//	    scales: a small scale degenerates towards plain walking, the largest
//	    scale degenerates towards the uniform scheme — only the mixture gets
//	    Õ(n^{1/3}).
//	(c) Theorem 4 drawing contacts uniformly over distances ("rank uniform")
//	    instead of uniformly over the ball.
func E10() scenario.Spec {
	gridFamily := scenario.Named("grid")
	treeFamily := scenario.Named("binary-tree")
	pathFamily := scenario.Named("path")

	gridDecomp := func(g *graph.Graph) (*decomp.PathDecomposition, error) { return decomp.BFSLayers(g, 0) }
	// The cache key must identify the decomposition, not just the ablation:
	// both variants report as "theorem2-ancestor-only", but preparing one
	// must never satisfy a cell that asked for the other.
	ancestorOnly := func(kind string, dec func(*graph.Graph) (*decomp.PathDecomposition, error)) scenario.SchemeRef {
		return scenario.SchemeRef{Key: "theorem2-ancestor-" + kind, New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
			return &augment.Theorem2Scheme{Decompose: dec, AncestorOnly: true}, nil
		}}
	}

	const tagA, tagB = "a", "b"
	return scenario.Spec{
		ID:    "E10",
		Title: "Ablations of the Theorem 2 and Theorem 4 constructions",
		Claim: "removing the uniform half (Thm 2) or the scale mixture (Thm 4) visibly degrades the corresponding guarantee",
		CellsFn: func(cfg Config) ([]scenario.Cell, error) {
			sizes := cfg.ScaleSizes(4096, 16384)
			var cells []scenario.Cell
			add := func(tag string, fam scenario.Family, n int, scheme scenario.SchemeRef, pairs, trials int) {
				cells = append(cells, scenario.Cell{
					Graph: fam.Ref(n), Scheme: scheme, Pairs: pairs, Trials: trials, Tag: tag,
				})
			}
			for _, n := range sizes {
				// (a) Theorem 2 with and without the uniform half of M.
				add(tagA, gridFamily, n, theorem2BFSScheme(), 8, 4)
				add(tagA, gridFamily, n, ancestorOnly("bfs", gridDecomp), 8, 4)
				add(tagA, treeFamily, n, theorem2TreeScheme(), 8, 4)
				add(tagA, treeFamily, n, ancestorOnly("centroid", decomp.TreeCentroid), 8, 4)
			}
			for _, n := range sizes {
				// (b) Ball-scheme scale-mixture and sampling ablations.
				maxScale := 1
				for 1<<uint(maxScale) < n {
					maxScale++
				}
				schemes := []scenario.SchemeRef{
					ballScheme(),
					scenario.Scheme(&augment.BallScheme{FixedScale: 2}),
					scenario.Scheme(&augment.BallScheme{FixedScale: maxScale}),
					scenario.Scheme(&augment.BallScheme{RankUniform: true}),
					uniformScheme(),
				}
				for _, fam := range []scenario.Family{pathFamily, gridFamily} {
					for _, s := range schemes {
						add(tagB, fam, n, s, 6, 3)
					}
				}
			}
			return cells, nil
		},
		RenderFn: func(cfg Config, res []scenario.CellResult) ([]*report.Table, error) {
			ta := report.NewTable("E10a: Theorem 2 with and without the uniform half of M",
				"graph", "n", "scheme", "greedy_diam", "mean_steps", "ci95")
			tb := report.NewTable("E10b: ball scheme scale-mixture and sampling ablations",
				"graph", "n", "scheme", "greedy_diam", "mean_steps", "ci95")
			for _, r := range res {
				t := ta
				if r.Cell.Tag == tagB {
					t = tb
				}
				t.AddRow(r.Est.GraphName, r.Est.N, r.Est.Scheme, r.Est.GreedyDiameter, r.Est.MeanSteps, r.Est.CI95)
			}
			ta.AddNote("expected: on grids the ancestor-only variant is clearly worse than the full scheme (the uniform " +
				"half provides the O(√n) fallback); on trees both variants are polylog")
			tb.AddNote("expected: the full mixed-scale ball scheme beats both fixed-scale ablations (tiny scale ≈ plain " +
				"walking, maximal scale ≈ uniform scheme ≈ √n); rank-uniform sampling remains competitive")
			return []*report.Table{ta, tb}, nil
		},
	}
}
