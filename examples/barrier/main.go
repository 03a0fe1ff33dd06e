// Barrier: watch the √n barrier being crossed.
//
// Theorem 1 says no name-independent (in particular, no matrix-based scheme
// without a good labeling) can beat Θ(√n) greedy routing on every graph;
// Theorem 4's ball scheme reaches Õ(n^{1/3}).  This example sweeps the path
// graph — the hardest simple case — and prints the greedy diameter of both
// schemes along with the fitted scaling exponents.
//
// Run with:
//
//	go run ./examples/barrier
package main

import (
	"fmt"
	"log"
	"math"

	"navaug/internal/augment"
	"navaug/internal/graph/gen"
	"navaug/internal/sim"
	"navaug/internal/stats"
)

func main() {
	sizes := []int{1024, 2048, 4096, 8192, 16384, 32768}
	cfg := sim.Config{Pairs: 10, Trials: 4, Seed: 13}
	e := sim.NewEngine(0)
	defer e.Close()

	uniform, err := sweep(e, sizes, augment.NewUniformScheme(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	ball, err := sweep(e, sizes, augment.NewBallScheme(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s %14s %14s %10s %12s %12s\n", "n", "uniform gd", "ball gd", "ratio", "sqrt(n)", "n^(1/3)")
	for i, n := range sizes {
		u, b := uniform[i], ball[i]
		fmt.Printf("%8d %14.1f %14.1f %10.2f %12.1f %12.1f\n",
			n, u, b, u/b, math.Sqrt(float64(n)), math.Cbrt(float64(n)))
	}

	x := make([]float64, len(sizes))
	for i, n := range sizes {
		x[i] = float64(n)
	}
	uniFit, err := stats.PowerLaw(x, uniform)
	if err != nil {
		log.Fatal(err)
	}
	ballFit, err := stats.PowerLaw(x, ball)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted scaling: uniform ≈ n^%.2f (paper: 0.5), ball ≈ n^%.2f (paper: 1/3 up to polylogs)\n",
		uniFit.Exponent, ballFit.Exponent)
	fmt.Println("The widening gap in the ratio column is the √n barrier being overcome.")
}

// sweep estimates the greedy diameter of scheme on the path of each size,
// deriving a reproducible per-size seed from cfg.Seed.
func sweep(e *sim.Engine, sizes []int, scheme augment.Scheme, cfg sim.Config) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		est, err := e.Estimate(gen.Path(n), scheme, c)
		if err != nil {
			return nil, err
		}
		out[i] = est.GreedyDiameter
	}
	return out, nil
}
