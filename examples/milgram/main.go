// Milgram: a small-world "six degrees of separation" simulation.
//
// The example models Milgram's letter-forwarding experiment on a 2D grid of
// acquaintances: each person knows their grid neighbours plus one long-range
// contact.  Three ways of wiring the long-range contacts are compared:
//
//   - uniformly at random (the name-independent baseline, Θ(√n) forwarding),
//   - Kleinberg's distance-harmonic wiring with exponent 2 (polylog, but only
//     because the exponent matches the grid's dimension),
//   - the paper's universal ball scheme (Õ(n^{1/3}) on *any* topology).
//
// Run with:
//
//	go run ./examples/milgram
package main

import (
	"fmt"
	"log"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/route"
	"navaug/internal/xrand"
)

func main() {
	const side = 90 // 8100 people
	g := gen.Grid2D(side, side)
	fmt.Printf("population: %d people on a %dx%d grid of acquaintances\n\n", g.N(), side, side)

	schemes := []augment.Scheme{
		augment.NewUniformScheme(),
		augment.NewHarmonicScheme(2),
		augment.NewBallScheme(),
	}

	// A fixed set of "letters": random (source, target) pairs, the same for
	// every wiring so the comparison is fair.
	rng := xrand.New(1967) // the year of Milgram's paper
	type letter struct{ from, to graph.NodeID }
	letters := make([]letter, 30)
	for i := range letters {
		letters[i] = letter{
			from: graph.NodeID(rng.Intn(g.N())),
			to:   graph.NodeID(rng.Intn(g.N())),
		}
	}

	fmt.Printf("%-14s %14s %14s %14s\n", "wiring", "mean hops", "median-ish", "worst letter")
	for _, scheme := range schemes {
		inst, err := scheme.Prepare(g)
		if err != nil {
			log.Fatal(err)
		}
		hops := make([]int, 0, len(letters))
		total := 0
		worst := 0
		for i, l := range letters {
			src := dist.NewField(g.BFS(l.to))
			res, err := route.Greedy(g, inst, l.from, l.to, src, xrand.New(uint64(i)+7), route.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if !res.Reached {
				log.Fatalf("letter %d was lost under %s", i, scheme.Name())
			}
			hops = append(hops, res.Steps)
			total += res.Steps
			if res.Steps > worst {
				worst = res.Steps
			}
		}
		mid := middle(hops)
		fmt.Printf("%-14s %14.1f %14d %14d\n", scheme.Name(), float64(total)/float64(len(letters)), mid, worst)
	}
	fmt.Println("\nMilgram observed chains of about six acquaintances; greedy forwarding over an augmented")
	fmt.Println("grid reproduces the qualitative effect, and the universal ball scheme does so without any")
	fmt.Println("knowledge of the grid's dimension — that is the point of the paper.")
}

func middle(xs []int) int {
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	return cp[len(cp)/2]
}
