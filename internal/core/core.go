// Package core holds the name registries and one-call entry points the
// command-line tool, the examples and the bench harness drive the library
// through:
//
//   - SchemeByName and GraphByName build the paper's schemes and graph
//     families from strings, so tools can be driven from flags;
//   - RunSuite runs the paper's experiments on one scenario runner;
//   - BuildSnapshot freezes a graph, its distance oracle and augmentation
//     tables for serving (see snapshot.go).
//
// Greedy-diameter estimation itself lives in sim.Engine.
package core

import (
	"fmt"
	"sort"
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
		return augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
			return decomp.TreeCentroid(g)
		}), nil
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

// GraphByName builds a graph of a named family at (approximately) the given
// size.  Recognised families:
//
//	path, cycle, grid, grid3d, torus, hypercube, complete, star,
//	binary-tree, balanced-tree, random-tree, attachment-tree, caterpillar,
//	spider, comb, interval, gnp, regular, watts-strogatz, powerlaw,
//	powerlaw-tree, lollipop, barbell
func GraphByName(family string, n int, seed uint64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: graph size must be >= 1, got %d", n)
	}
	rng := xrand.New(seed)
	switch strings.ToLower(strings.TrimSpace(family)) {
	case "path":
		return gen.Path(n), nil
	case "cycle":
		return gen.Cycle(maxInt(n, 3)), nil
	case "grid":
		side := intSqrt(n)
		return gen.Grid2D(side, side), nil
	case "grid3d":
		side := intCbrt(n)
		return gen.Grid3D(side, side, side), nil
	case "torus":
		side := maxInt(intSqrt(n), 3)
		return gen.Torus2D(side, side), nil
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return gen.Hypercube(d), nil
	case "complete":
		return gen.Complete(n), nil
	case "star":
		return gen.Star(n), nil
	case "binary-tree", "bintree":
		return gen.BinaryTree(n), nil
	case "balanced-tree":
		depth := 0
		for count := 1; count < n; count = count*3 + 1 {
			depth++
		}
		return gen.BalancedTree(3, depth), nil
	case "random-tree", "rtree":
		return gen.RandomTree(n, rng), nil
	case "attachment-tree", "ratree":
		return gen.RandomAttachmentTree(n, rng), nil
	case "caterpillar":
		spine := maxInt(n/4, 1)
		return gen.Caterpillar(spine, 3), nil
	case "spider":
		legLen := maxInt((n-1)/8, 1)
		return gen.Spider(8, legLen), nil
	case "comb":
		spine := maxInt(n/4, 1)
		return gen.Comb(spine, 3), nil
	case "interval":
		g, _ := gen.RandomIntervalGraph(n, 3.0, rng)
		return g, nil
	case "gnp":
		return gen.ConnectedGNP(n, 3.0/float64(n), rng), nil
	case "regular":
		d := 4
		if n <= d {
			d = maxInt(n-1, 1)
		}
		if n*d%2 != 0 {
			d++
		}
		return gen.RandomRegular(n, d, rng)
	case "powerlaw", "plaw":
		if n < 3 {
			return nil, fmt.Errorf("core: powerlaw needs n >= 3")
		}
		return gen.PowerLawAttachment(n, 2, rng), nil
	case "powerlaw-tree", "plaw-tree":
		if n < 2 {
			return nil, fmt.Errorf("core: powerlaw-tree needs n >= 2")
		}
		return gen.PowerLawAttachment(n, 1, rng), nil
	case "watts-strogatz", "ws":
		if n < 5 {
			return nil, fmt.Errorf("core: watts-strogatz needs n >= 5")
		}
		return gen.WattsStrogatz(n, 2, 0.1, rng), nil
	case "lollipop":
		clique := maxInt(intSqrt(n), 2)
		return gen.Lollipop(clique, n-clique), nil
	case "barbell":
		clique := maxInt(intSqrt(n), 2)
		return gen.Barbell(clique, maxInt(n-2*clique, 0)), nil
	default:
		return nil, fmt.Errorf("core: unknown graph family %q (known: %s)", family, strings.Join(GraphFamilies(), ", "))
	}
}

// GraphFamilies lists the family names understood by GraphByName.
func GraphFamilies() []string {
	fams := []string{
		"path", "cycle", "grid", "grid3d", "torus", "hypercube", "complete", "star",
		"binary-tree", "balanced-tree", "random-tree", "attachment-tree", "caterpillar",
		"spider", "comb", "interval", "gnp", "regular", "watts-strogatz", "powerlaw",
		"powerlaw-tree", "lollipop", "barbell",
	}
	sort.Strings(fams)
	return fams
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func intCbrt(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
