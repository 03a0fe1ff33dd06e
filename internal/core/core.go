// Package core holds the scheme-name registry and the one-call entry points
// the command-line tool, the examples and the bench harness drive the
// library through:
//
//   - SchemeByName builds the paper's schemes from strings, so tools can be
//     driven from flags; GraphByName is a seed-taking front to the family
//     table, gen.ByName, which owns what every graph-family name builds;
//   - RunSuite runs the paper's experiments on one scenario runner;
//   - BuildSnapshot freezes a graph, its distance oracle and augmentation
//     tables for serving (see snapshot.go).
//
// Greedy-diameter estimation itself lives in sim.Engine.
package core

import (
	"fmt"
	"strings"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/experiments"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/xrand"
)

// RunSuite runs the selected experiments (nil or empty ids = all) on one
// shared scenario runner — graphs, distance fields and prepared schemes are
// built once and shared across every experiment of the run, and cells
// execute concurrently on one persistent engine — and returns the full
// report (manifest + per-experiment tables).
//
// The returned error is the first experiment failure in selection order;
// the report is still returned with per-experiment Error fields filled, so
// callers can render partial results.
func RunSuite(ids []string, cfg scenario.Config) (*report.Report, error) {
	var specs []scenario.Spec
	if len(ids) == 0 {
		specs = experiments.All()
	} else {
		for _, id := range ids {
			spec, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return nil, fmt.Errorf("core: unknown experiment %q (known: %s)",
					id, strings.Join(experiments.IDs(), ", "))
			}
			specs = append(specs, spec)
		}
	}
	cfg = cfg.WithDefaults()
	runner := scenario.NewRunner(cfg)
	defer runner.Close()
	results := runner.RunAll(specs)

	rep := &report.Report{
		Manifest: report.Manifest{
			Tool:           "navsim",
			FormatVersion:  report.FormatVersion,
			Seed:           cfg.Seed,
			Scale:          cfg.Scale,
			Precision:      cfg.Precision,
			PairsOverride:  cfg.Pairs,
			TrialsOverride: cfg.Trials,
			MaxTrials:      cfg.MaxTrials,
		},
	}
	var firstErr error
	for _, res := range results {
		rep.Manifest.Experiments = append(rep.Manifest.Experiments, res.Spec.ID)
		er := report.ExperimentResult{
			ID:     res.Spec.ID,
			Title:  res.Spec.Title,
			Claim:  res.Spec.Claim,
			Tables: res.Tables,
		}
		if res.Err != nil {
			er.Error = res.Err.Error()
			if firstErr == nil {
				firstErr = res.Err
			}
		}
		rep.Experiments = append(rep.Experiments, er)
	}
	return rep, firstErr
}

// SchemeByName instantiates one of the paper's schemes from a string
// identifier.  Recognised names:
//
//	none            no augmentation (baseline)
//	uniform         uniform scheme (Peleg, Theorem 1 upper bound)
//	ball            Theorem 4 ball scheme (the Õ(n^{1/3}) construction)
//	harmonic:<r>    distance-harmonic scheme with exponent r (Kleinberg baseline)
//	theorem2        Theorem 2 (M, L) scheme with automatic decomposition choice
//	theorem2-tree   Theorem 2 scheme wired to the centroid tree decomposition
//	theorem2-bfs    Theorem 2 scheme wired to the BFS-layer decomposition
func SchemeByName(name string) (augment.Scheme, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	switch {
	case lower == "none":
		return augment.NewNoAugmentation(), nil
	case lower == "uniform":
		return augment.NewUniformScheme(), nil
	case lower == "ball":
		return augment.NewBallScheme(), nil
	case lower == "theorem2":
		return augment.NewTheorem2Scheme(nil), nil
	case lower == "theorem2-tree":
		return augment.NewTheorem2Scheme(decomp.TreeCentroid), nil
	case lower == "theorem2-bfs":
		return augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
			return decomp.BFSLayers(g, 0)
		}), nil
	case strings.HasPrefix(lower, "harmonic:"):
		var r float64
		if _, err := fmt.Sscanf(lower, "harmonic:%g", &r); err != nil {
			return nil, fmt.Errorf("core: bad harmonic exponent in %q", name)
		}
		return augment.NewHarmonicScheme(r), nil
	case lower == "harmonic":
		return augment.NewHarmonicScheme(1), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (known: %s)", name, strings.Join(SchemeNames(), ", "))
	}
}

// SchemeNames lists the scheme identifiers understood by SchemeByName.
func SchemeNames() []string {
	return []string{"none", "uniform", "ball", "harmonic:<r>", "theorem2", "theorem2-tree", "theorem2-bfs"}
}

// GraphByName builds a graph of a named family (see gen.ByName) at
// (approximately) the given size, with its randomness drawn from seed.
func GraphByName(family string, n int, seed uint64) (*graph.Graph, error) {
	return gen.ByName(family, n, xrand.New(seed))
}
