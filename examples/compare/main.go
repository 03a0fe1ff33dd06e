// Compare: every scheme on every family, one table.
//
// This example runs all of the paper's augmentation schemes (plus the
// no-augmentation and Kleinberg-harmonic baselines) on a selection of graph
// families at a fixed size and prints the greedy diameter estimates as a
// matrix.  It is the quickest way to see which scheme is universal and which
// is specialised.
//
// Run with:
//
//	go run ./examples/compare
package main

import (
	"fmt"
	"log"
	"os"

	"navaug/internal/augment"
	"navaug/internal/core"
	"navaug/internal/decomp"
	"navaug/internal/graph"
	"navaug/internal/report"
	"navaug/internal/sim"
)

func main() {
	const n = 4096
	families := []string{"path", "grid", "binary-tree", "interval", "gnp"}

	schemes := []augment.Scheme{
		augment.NewNoAugmentation(),
		augment.NewUniformScheme(),
		augment.NewHarmonicScheme(1),
		augment.NewBallScheme(),
	}

	e := sim.NewEngine(0)
	defer e.Close()
	cfg := sim.Config{Pairs: 8, Trials: 4, Seed: 5}

	table := report.NewTable(fmt.Sprintf("greedy diameter estimates at n ≈ %d", n),
		append([]string{"family", "diameter"}, schemeNames(schemes)...)...)

	for _, fam := range families {
		g, err := core.GraphByName(fam, n, 5)
		if err != nil {
			log.Fatal(err)
		}
		row := []any{fam, int(g.Diameter())}
		for _, s := range schemes {
			est, err := e.Estimate(g, s, cfg)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, est.GreedyDiameter)
		}
		table.AddRow(row...)
	}

	// The Theorem 2 scheme needs a per-family decomposition; add it as a
	// second table for the families it is designed for.
	t2 := report.NewTable("Theorem 2 (M,L) scheme on its target families",
		"family", "decomposition", "greedy diameter")
	treeScheme := augment.NewTheorem2Scheme(decomp.TreeCentroid)
	bfsScheme := augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.BFSLayers(g, 0)
	})
	for _, c := range []struct {
		family string
		scheme augment.Scheme
		label  string
	}{
		{"binary-tree", treeScheme, "centroid"},
		{"path", treeScheme, "centroid"},
		{"grid", bfsScheme, "bfs-layers"},
	} {
		g, err := core.GraphByName(c.family, n, 5)
		if err != nil {
			log.Fatal(err)
		}
		est, err := e.Estimate(g, c.scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		t2.AddRow(c.family, c.label, est.GreedyDiameter)
	}

	if err := table.RenderText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := t2.RenderText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Reading guide: 'none' is the plain diameter, 'uniform' is the √n baseline, 'harmonic-r1' is")
	fmt.Println("excellent only where its exponent matches the growth of the graph, and 'ball' (Theorem 4)")
	fmt.Println("is the universal scheme that stays sub-√n everywhere.")
}

func schemeNames(schemes []augment.Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name()
	}
	return out
}
