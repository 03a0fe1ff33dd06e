// Package exact computes exact expected greedy-routing step counts and
// exact greedy diameters for augmented graphs whose schemes expose their
// contact distributions (augment.Distributional).
//
// The computation exploits the same structural fact the lazy sampler relies
// on: greedy routing strictly decreases the distance to the target, so a
// node is visited at most once and the choice made at a node depends only on
// that node's own (independently drawn) long-range contact.  The expected
// number of steps to the target therefore satisfies an acyclic recurrence
//
//	E[T(t)]   = 0
//	E[T(u)]   = 1 + Σ_v φ_u(v) · E[T(step(u, v))]
//
// where step(u, v) is the neighbour of u (among the local neighbours and the
// contact v) closest to the target, and nodes can be processed in order of
// increasing distance to t.  One target costs O(n·(n + Δ)) time where Δ is
// the maximum degree; the exact greedy diameter over all pairs costs n times
// that, so it is intended for small and medium instances and, above all, for
// validating the Monte Carlo estimator.
package exact

import (
	"fmt"
	"sort"

	"navaug/internal/augment"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// ExpectedSteps returns, for every source u, the exact expected number of
// greedy-routing steps from u to target under the given distributional
// augmentation.  Unreachable sources get -1.
func ExpectedSteps(g *graph.Graph, inst augment.Distributional, target graph.NodeID) ([]float64, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("exact: empty graph")
	}
	if int(target) < 0 || int(target) >= n {
		return nil, fmt.Errorf("exact: target %d out of range [0,%d)", target, n)
	}
	distToTarget := g.BFS(target)

	// Process nodes by increasing distance to the target so that every
	// step(u, v) has already been solved when u is processed.
	order := make([]graph.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if distToTarget[v] != graph.Unreachable {
			order = append(order, graph.NodeID(v))
		}
	}
	sort.Slice(order, func(i, j int) bool { return distToTarget[order[i]] < distToTarget[order[j]] })

	expected := make([]float64, n)
	for i := range expected {
		expected[i] = -1
	}
	for _, u := range order {
		if u == target {
			expected[u] = 0
			continue
		}
		// The local part of the greedy step does not depend on the contact:
		// precompute the best local neighbour once.
		localBest, localDist := bestLocalNeighbour(g, u, distToTarget)
		phi := inst.ContactDistribution(u)
		if len(phi) != n {
			return nil, fmt.Errorf("exact: distribution of node %d has length %d, want %d", u, len(phi), n)
		}
		e := 1.0
		for v, p := range phi {
			if p == 0 {
				continue
			}
			next := localBest
			if dv := distToTarget[v]; dv != graph.Unreachable && dv < localDist {
				next = graph.NodeID(v)
			}
			e += p * expected[next]
		}
		expected[u] = e
	}
	return expected, nil
}

// bestLocalNeighbour returns the neighbour of u closest to the target using
// the same tie-breaking rule as route.Greedy (smallest node id), together
// with its distance.  Greedy routing always has an improving local move, so
// the result is well defined for u != target in a connected component.
func bestLocalNeighbour(g *graph.Graph, u graph.NodeID, distToTarget []int32) (graph.NodeID, int32) {
	best := u
	bestDist := distToTarget[u]
	for _, v := range g.Neighbors(u) {
		d := distToTarget[v]
		if d == graph.Unreachable {
			continue
		}
		if d < bestDist || (d == bestDist && v < best) {
			best = v
			bestDist = d
		}
	}
	return best, bestDist
}

// Result is the outcome of a GreedyDiameter computation.
type Result struct {
	// GreedyDiameter is max over ordered pairs (s, t) of E[steps s→t].
	GreedyDiameter float64
	// ArgSource and ArgTarget realise the maximum.
	ArgSource, ArgTarget graph.NodeID
	// MeanExpectation is the average of E[steps s→t] over all ordered pairs
	// with s ≠ t.
	MeanExpectation float64
}

// GreedyDiameter computes the exact greedy diameter of (G, φ): the maximum
// over all ordered source/target pairs of the expected number of greedy
// steps.  It requires a connected graph and costs one ExpectedSteps solve
// per target, so keep n in the low thousands.
func GreedyDiameter(g *graph.Graph, inst augment.Distributional) (Result, error) {
	n := g.N()
	if n == 0 {
		return Result{}, fmt.Errorf("exact: empty graph")
	}
	if !g.IsConnected() {
		return Result{}, fmt.Errorf("exact: greedy diameter requires a connected graph")
	}
	// The contact distributions do not depend on the target, so compute them
	// once and reuse them across the n single-target solves.
	cached := &cachedDistributions{inst: inst, dists: make([][]float64, n)}
	res := Result{}
	totalPairs := 0
	sum := 0.0
	for t := graph.NodeID(0); int(t) < n; t++ {
		exp, err := ExpectedSteps(g, cached, t)
		if err != nil {
			return Result{}, err
		}
		for s := graph.NodeID(0); int(s) < n; s++ {
			if s == t {
				continue
			}
			e := exp[s]
			sum += e
			totalPairs++
			if e > res.GreedyDiameter {
				res.GreedyDiameter = e
				res.ArgSource = s
				res.ArgTarget = t
			}
		}
	}
	if totalPairs > 0 {
		res.MeanExpectation = sum / float64(totalPairs)
	}
	return res, nil
}

// cachedDistributions memoises ContactDistribution calls; GreedyDiameter
// uses it because the distributions are target-independent.
type cachedDistributions struct {
	inst  augment.Distributional
	dists [][]float64
}

// Contact delegates to the wrapped instance (unused by the DP but required
// by the Distributional interface).
func (c *cachedDistributions) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	return c.inst.Contact(u, rng)
}

// ContactDistribution returns the memoised distribution of u.
func (c *cachedDistributions) ContactDistribution(u graph.NodeID) []float64 {
	if c.dists[u] == nil {
		c.dists[u] = c.inst.ContactDistribution(u)
	}
	return c.dists[u]
}

// SchemeGreedyDiameter is a convenience wrapper: it prepares the scheme on g
// and computes the exact greedy diameter, failing if the scheme does not
// expose contact distributions.
func SchemeGreedyDiameter(g *graph.Graph, scheme augment.Scheme) (Result, error) {
	inst, err := scheme.Prepare(g)
	if err != nil {
		return Result{}, err
	}
	d, ok := inst.(augment.Distributional)
	if !ok {
		return Result{}, fmt.Errorf("exact: scheme %s does not expose contact distributions", scheme.Name())
	}
	return GreedyDiameter(g, d)
}
