// Quickstart: augment a graph, route greedily, estimate the greedy diameter.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/route"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

func main() {
	// 1. Build a graph.  Any connected graph works; here a 64x64 mesh.
	g := gen.Grid2D(64, 64)
	fmt.Printf("graph: %v (diameter %d)\n\n", g, g.Diameter())

	// 2. Pick an augmentation scheme and prepare it on the graph.  The ball
	//    scheme is the paper's Theorem 4 construction: every node links to
	//    a uniform node of a random-scale ball around it.
	ball := augment.NewBallScheme()
	inst, err := ball.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Route a single message greedily between two far-apart corners and
	//    print what happened.  Greedy routing steers by the distance to the
	//    target, here a BFS field.
	t := graph.NodeID(g.N() - 1)
	res, err := route.Greedy(g, inst, 0, t, dist.NewField(g.BFS(t)), xrand.New(42), route.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one greedy route corner-to-corner: %d steps (%d long-range hops) over graph distance %d\n\n",
		res.Steps, res.LongLinksUsed, g.Diameter())

	// 4. Estimate the greedy diameter: the maximum over source/target pairs
	//    of the expected number of greedy steps.  This is the quantity every
	//    theorem in the paper bounds.  The engine is a worker pool that can
	//    serve any number of estimations.
	e := sim.NewEngine(0)
	defer e.Close()
	cfg := sim.Config{Pairs: 12, Trials: 6, Seed: 1}
	est, err := e.EstimateInstance(g, ball.Name(), inst, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy diameter estimate under %q: %.1f steps (mean %.1f ± %.1f, %d samples)\n",
		est.Scheme, est.GreedyDiameter, est.MeanSteps, est.CI95, est.Samples)

	// 5. Compare against the uniform scheme (the √n baseline).
	uniEst, err := e.Estimate(g, augment.NewUniformScheme(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy diameter estimate under %q: %.1f steps\n", uniEst.Scheme, uniEst.GreedyDiameter)
	fmt.Printf("\nball / uniform ratio: %.2f (Theorem 4 says this drops like ~n^(-1/6) as n grows)\n",
		est.GreedyDiameter/uniEst.GreedyDiameter)
}
