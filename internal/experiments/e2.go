package experiments

import (
	"fmt"
	"math"

	"navaug/internal/augment"
	"navaug/internal/graph"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

// E2 reproduces Theorem 1's lower bound: every name-independent matrix-based
// scheme is Ω(√n) on the path under its worst-case labeling.  The experiment
// takes two matrices — the uniform matrix and the "cheating"
// distance-harmonic matrix that is excellent under the identity labeling —
// and shows that the adversarial labeling found by the Theorem 1 counting
// argument forces both back to Θ(√n): routing across the low-mass segment
// gains essentially nothing over plain walking, so the greedy diameter is at
// least the segment pair distance ≈ √n/3.
func E2() scenario.Spec {
	pathFamily := scenario.Named("path")
	snapToSquares := func(sizes []int) []int {
		out := make([]int, 0, len(sizes))
		for _, n := range sizes {
			s := int(math.Sqrt(float64(n)))
			if n-s*s > (s+1)*(s+1)-n {
				s++
			}
			sq := s * s
			if sq < 64 {
				sq = 64
			}
			if len(out) == 0 || sq > out[len(out)-1] {
				out = append(out, sq)
			}
		}
		return out
	}
	return scenario.Spec{
		ID:    "E2",
		Title: "Name-independent matrix schemes are Ω(√n) on the path",
		Claim: "for any matrix there is a labeling of the path whose greedy diameter is ≥ ~√n/3; the harmonic matrix drops from polylog (identity labels) to Ω(√n) (adversarial labels)",
		CellsFn: func(cfg Config) ([]scenario.Cell, error) {
			// Dense n×n matrices: keep n moderate.  Sizes are snapped to
			// perfect squares after scaling: the Theorem 1 counting argument
			// needs a ⌈√n⌉-label set of internal mass < 1, which for the
			// uniform matrix requires ⌈√n⌉·(⌈√n⌉-1) < n — guaranteed at n=s²,
			// impossible just below it.
			sizes := snapToSquares(cfg.ScaleSizes(900, 1600, 2500))
			var cells []scenario.Cell
			for _, n := range sizes {
				n := n
				for _, matName := range []string{"uniform", "harmonic"} {
					matName := matName
					// The dense n×n matrix is deliberately NOT captured by the
					// cells: it is rebuilt inside SchemeRef.New so the
					// runner's refcounted instance cache bounds its lifetime
					// to the cells that measure it, instead of pinning every
					// size's matrix from enumeration to the end of the run.
					build := func() *augment.Matrix {
						if matName == "harmonic" {
							return augment.NewHarmonicMatrix(n)
						}
						return augment.NewUniformMatrix(n)
					}
					// Identity labeling, routing the extremal pair (0, n-1).
					cells = append(cells, scenario.Cell{
						Graph: pathFamily.Ref(n),
						Scheme: scenario.SchemeRef{
							Key: matName + "-identity",
							New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
								return &augment.NameIndependentScheme{Matrix: build(), SchemeName: matName + "-identity"}, nil
							},
						},
						Trials:     12,
						FixedPairs: []sim.Pair{{Source: 0, Target: graph.NodeID(n - 1)}},
						Tag:        matName,
						Data:       -1.0,
					})
					// Adversarial labeling from the Theorem 1 construction,
					// routing the pair inside the shortcut-free segment.  The
					// labeling RNG is derived from (seed, n, matrix) alone so
					// cells stay independent of execution order; only the
					// permutation and pair survive enumeration.
					rng := xrand.New(cfg.Seed + uint64(n)*0x9e3779b97f4a7c15 + scenario.Hash64(matName))
					adv, err := augment.AdversarialPathLabeling(build(), rng)
					if err != nil {
						return nil, fmt.Errorf("E2: adversarial labeling for %s n=%d: %w", matName, n, err)
					}
					cells = append(cells, scenario.Cell{
						Graph: pathFamily.Ref(n),
						Scheme: scenario.SchemeRef{
							Key: matName + "-adversarial",
							New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
								return &augment.NameIndependentScheme{Matrix: build(), Perm: adv.Perm, SchemeName: matName + "-adversarial"}, nil
							},
						},
						Trials:     12,
						FixedPairs: []sim.Pair{{Source: graph.NodeID(adv.Source), Target: graph.NodeID(adv.Target)}},
						Tag:        matName,
						Data:       adv.Mass,
					})
				}
			}
			return cells, nil
		},
		RenderFn: func(cfg Config, res []scenario.CellResult) ([]*report.Table, error) {
			t := report.NewTable("E2: matrix schemes on the path, identity vs adversarial labeling",
				"n", "matrix", "labeling", "pair_dist", "mean_steps", "ci95", "steps/pair_dist", "sqrt(n)/3", "segment_mass")
			for _, r := range res {
				pair := r.Cell.FixedPairs[0]
				pairDist := math.Abs(float64(pair.Target - pair.Source))
				labeling := "adversarial"
				massCell := report.Cell(r.Cell.Data)
				if mass := r.Cell.Data.(float64); mass < 0 {
					labeling = "identity"
					massCell = "-"
				}
				t.AddRow(r.Est.N, r.Cell.Tag, labeling, pairDist, r.Est.MeanSteps, r.Est.CI95,
					r.Est.MeanSteps/pairDist, math.Sqrt(float64(r.Est.N))/3, massCell)
			}
			t.AddNote("identity rows route the extremal pair (0, n-1); adversarial rows route the pair inside the " +
				"low-mass segment prescribed by the Theorem 1 proof (distance ≈ √n/3)")
			t.AddNote("expected shape: harmonic/identity compresses an (n-1)-hop pair into polylog steps " +
				"(steps/pair_dist ≪ 1) while every adversarial row stays at steps/pair_dist ≈ 1, i.e. Ω(√n) greedy diameter")
			return []*report.Table{t}, nil
		},
	}
}
