// Treeroute: the Theorem 2 matrix scheme on trees.
//
// Trees have pathshape O(log n), so the paper's (M, L) scheme — an ancestor
// matrix over a centroid path decomposition, mixed with the uniform matrix —
// routes in O(log³ n) expected steps, while any name-independent scheme is
// stuck at Ω(√n).  The example builds increasingly large random trees, runs
// both schemes, and prints the scaling side by side.
//
// Run with:
//
//	go run ./examples/treeroute
package main

import (
	"fmt"
	"log"
	"math"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

func main() {
	theorem2 := augment.NewTheorem2Scheme(decomp.TreeCentroid)
	uniform := augment.NewUniformScheme()

	fmt.Printf("%8s %12s %14s %14s %12s %12s\n",
		"n", "tree diam", "theorem2 gd", "uniform gd", "log2^3(n)", "sqrt(n)")
	e := sim.NewEngine(0)
	defer e.Close()
	rng := xrand.New(11)
	for _, n := range []int{511, 1023, 2047, 4095, 8191, 16383} {
		g := gen.RandomTree(n, rng)
		cfg := sim.Config{Pairs: 10, Trials: 5, Seed: uint64(n)}

		t2, err := e.Estimate(g, theorem2, cfg)
		if err != nil {
			log.Fatal(err)
		}
		uni, err := e.Estimate(g, uniform, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12d %14.1f %14.1f %12.1f %12.1f\n",
			n, g.Diameter(), t2.GreedyDiameter, uni.GreedyDiameter,
			math.Pow(math.Log2(float64(n)), 3), math.Sqrt(float64(n)))
	}
	fmt.Println("\nThe theorem2 column should stay roughly flat (polylogarithmic) while the uniform column")
	fmt.Println("keeps growing like √n — exactly the separation Corollary 1 of the paper predicts.")

	// Show the machinery underneath once, on a small tree.
	small := gen.BinaryTree(63)
	pd, err := decomp.TreeCentroid(small)
	if err != nil {
		log.Fatal(err)
	}
	apsp := smallMetric(small)
	fmt.Printf("\nunder the hood for a 63-node binary tree: centroid path decomposition with %d bags, "+
		"width %d, shape %d\n", pd.B(), pd.Width(), pd.Shape(apsp, small.N()))
}

func smallMetric(g *graph.Graph) func(u, v graph.NodeID) int32 {
	rows := make([][]int32, g.N())
	for u := 0; u < g.N(); u++ {
		rows[u] = g.BFS(graph.NodeID(u))
	}
	return func(u, v graph.NodeID) int32 { return rows[u][v] }
}
