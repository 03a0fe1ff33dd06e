// Package augment implements the augmentation schemes studied in the paper:
// the uniform scheme (Peleg's O(√n) bound), dense matrix-based schemes and
// the Theorem 1 adversarial labeling, the Theorem 2 ancestor-matrix scheme
// driven by a path decomposition, the Theorem 3 compressed-label schemes,
// and the headline Theorem 4 ball scheme with greedy diameter Õ(n^{1/3}).
//
// A Scheme describes how to augment any graph; Prepare builds per-graph
// state (distances, decompositions, labelings, sampling tables) and returns
// an Instance that draws long-range contacts node by node.  Instances are
// required to be safe for concurrent use: all mutable state lives in the
// *xrand.RNG passed to Contact, which each worker owns exclusively.
//
// The cost contract between the two phases is deliberately asymmetric:
// Prepare may be heavy — run BFS from every node, build per-node or per-row
// Walker alias tables (internal/sampler), precompute ancestor lists — while
// Contact must be O(1) amortised and allocation-free, because the Monte
// Carlo engine calls it on every hop of every routed trial.  Schemes whose
// exact per-node tables would need Θ(n²) memory (harmonic, ball) honour the
// contract up to a configurable node-count threshold and fall back to
// bounded-memory per-draw sampling beyond it.
//
// Greedy routing never revisits a node (the distance to the target strictly
// decreases every step), so drawing contacts lazily at first visit is
// statistically identical to drawing the whole augmentation up front.
// route.Scratch provides that per-trial memoisation allocation-free.
package augment

import (
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// Scheme is a recipe for augmenting any graph with one long-range link per
// node.
type Scheme interface {
	// Name returns a short identifier used in reports and benchmarks.
	Name() string
	// Prepare builds the per-graph state needed to draw long-range contacts.
	// Prepare may be heavy: all per-draw work a scheme can hoist (BFS
	// passes, alias tables, ancestor lists) belongs here, paid once per
	// graph, so that Contact stays on its O(1) budget.
	Prepare(g *graph.Graph) (Instance, error)
}

// Instance draws long-range contacts for a specific graph.
// Implementations must be safe for concurrent use by multiple goroutines.
type Instance interface {
	// Contact draws the long-range contact of u.  Returning u itself means
	// "no long-range link" (some schemes put probability mass on no link).
	//
	// Contact is the innermost call of the simulator's hot path and must be
	// O(1) amortised and allocation-free (schemes with a documented
	// precompute threshold may degrade to bounded-memory per-draw sampling
	// above it, never below).
	Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID
}

// Distributional is implemented by instances that can report the exact
// per-node contact distribution φ_u.  The returned vector has length N;
// entry v is Pr{contact of u is v}, and the entry at u itself carries the
// probability of having no effective long-range link (self contacts and
// unspent row mass).  The vector always sums to 1 (up to rounding).
//
// Every scheme shipped with the package implements Distributional, which is
// what the exact greedy-diameter dynamic program (internal/exact) and the
// sampler-vs-distribution tests build on.
type Distributional interface {
	Instance
	// ContactDistribution returns φ_u as a fresh slice of length N.
	ContactDistribution(u graph.NodeID) []float64
}

// SampleAll eagerly draws the long-range contact of every node, returning
// contacts[u] = long-range contact of u (possibly u itself).  It is used by
// tests and by experiments that need a full augmentation snapshot.
func SampleAll(inst Instance, n int, rng *xrand.RNG) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for u := 0; u < n; u++ {
		out[u] = inst.Contact(graph.NodeID(u), rng)
	}
	return out
}
