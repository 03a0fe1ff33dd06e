package experiments

import (
	"fmt"

	"navaug/internal/churn"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/xrand"
)

// e13Params is the per-cell churn configuration carried through Cell.Data to
// the renderer.
type e13Params struct {
	Rate   float64
	Budget int
}

// e13Families are the E12 unstructured families (same names and builders, so
// the base instances are the very graphs E12 measures), restricted to one
// moderate size — churn cells pay per-batch BFS diffs on top of routing, and
// the experiment's axis is the repair budget, not n.
func e13Families() []scenario.Family {
	return []scenario.Family{
		scenario.GraphFamily("ws", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.WattsStrogatz(max(n, 5), 2, 0.1, rng), nil
		}),
		scenario.GraphFamily("gnp", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.ConnectedGNP(n, 3.0/float64(n), rng), nil
		}),
		scenario.GraphFamily("regular", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.RandomRegular(n, 4, rng)
		}),
		scenario.GraphFamily("powerlaw", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.PowerLawAttachment(max(n, 3), 2, rng), nil
		}),
		scenario.GraphFamily("plaw-tree", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.PowerLawAttachment(n, 1, rng), nil
		}),
		scenario.GraphFamily("ratree", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			return gen.RandomAttachmentTree(n, rng), nil
		}),
	}
}

// E13 is the churn experiment: the paper's schemes assume a fixed graph, but
// any deployed overlay must survive edge churn.  Each cell builds an E12
// family instance, then runs a deterministic churn stream through the
// dynamic-graph pipeline (internal/churn): per batch, a fraction of the
// edges is deleted and replaced by fresh random edges, the incremental
// 2-hop repair oracle (dist.DynTwoHop) re-labels up to `budget` dirtied
// nodes, and exactly those nodes' frozen augmentation contacts are locally
// resampled.  Routing then runs on the final churned graph, steered by the
// repaired — possibly still debt-carrying — oracle.
//
// The stream is seeded independently of the budget, so every budget cell of
// a (family, rate) group churns the identical edge sequence: differences in
// greedy diameter, stretch and failure rate are attributable to the repair
// budget alone (and the runner computes each stream once for all its
// budget cells).  Disconnected pairs (churn legitimately cuts graphs apart,
// especially the tree families, where every deletion splits a component
// until an insertion rejoins it) are counted in the `unreachable` column —
// never errored, never resampled, never spun against the step cap.
func E13() scenario.Spec {
	rates := []float64{0.002, 0.01}
	budgets := []int{0, 8, -1}
	schemes := []scenario.SchemeRef{uniformScheme(), ballScheme()}
	return scenario.Spec{
		ID:    "E13",
		Title: "Churn: greedy routing degradation vs. incremental label-repair budget on dynamic graphs",
		Claim: "greedy routing degrades gracefully under edge churn and recovers with the repair budget: " +
			"unlimited-budget cells match a freshly rebuilt oracle (conformance-pinned), zero-budget cells pay " +
			"visible stretch and failures from stale steering, and tree-like families disconnect (unreachable > 0) " +
			"where cyclic families absorb the same churn",
		CellsFn: func(cfg scenario.Config) ([]scenario.Cell, error) {
			sizes := cfg.ScaleSizes(4096)
			n := sizes[len(sizes)-1]
			var cells []scenario.Cell
			for _, fam := range e13Families() {
				for _, rate := range rates {
					for _, budget := range budgets {
						spec := &churn.Spec{Rate: rate, Batches: 8, RepairBudget: budget, CompactEvery: 4}
						ref := fam.Ref(n)
						ref.Churn = spec
						for _, scheme := range schemes {
							cells = append(cells, scenario.Cell{
								Graph:  ref,
								Scheme: scheme,
								Pairs:  24,
								Trials: 2,
								Tag:    fmt.Sprintf("%s/%s", fam.Name, spec.Key()),
								Data:   e13Params{Rate: rate, Budget: budget},
							})
						}
					}
				}
			}
			return cells, nil
		},
		RenderFn: func(cfg scenario.Config, res []scenario.CellResult) ([]*report.Table, error) {
			detail := report.NewTable(
				"E13: routing on churned graphs, by per-batch repair budget (-1 = unlimited, 0 = no repair)",
				"family", "n", "scheme", "rate", "budget",
				"greedy_diam", "mean_steps", "stretch", "failed", "unreachable",
				"dirty", "repaired", "debt", "rebuilds", "comps")
			for _, r := range res {
				p, ok := r.Cell.Data.(e13Params)
				if !ok {
					return nil, fmt.Errorf("E13: cell %s has no churn params", r.Cell.Tag)
				}
				cres, ok := r.Aux.(*churn.Result)
				if !ok {
					return nil, fmt.Errorf("E13: cell %s has no churn result", r.Cell.Tag)
				}
				// Mean multiplicative stretch over reachable pairs: routed
				// steps relative to the true shortest path on the final graph.
				var stretch float64
				var failed, reached int
				for _, ps := range r.Est.PairStats {
					if ps.Unreachable {
						continue
					}
					failed += ps.Failed
					if ps.Steps.Count > 0 && ps.Dist > 0 {
						stretch += ps.Steps.Mean / float64(ps.Dist)
						reached++
					}
				}
				if reached > 0 {
					stretch /= float64(reached)
				}
				detail.AddRow(r.Cell.Graph.Family, r.Est.N, r.Est.Scheme, p.Rate, p.Budget,
					r.Est.GreedyDiameter, r.Est.MeanSteps, stretch, failed, r.Est.Unreachable,
					cres.DirtyTotal, cres.PatchedTotal, cres.DebtRemaining, cres.Rebuilds, cres.Components)
			}
			detail.AddNote("per (family, rate) group the delta stream is identical across budgets " +
				"(seeded from the stream key, which excludes the budget); dirty counts match row-for-row and " +
				"only repair quality — debt, and with it stretch/failures — varies")
			return []*report.Table{detail}, nil
		},
	}
}
