// Package decomp implements path decompositions and the width, length and
// shape measures the paper builds on.
//
// A path decomposition of G is a sequence of bags X_1..X_b (subsets of
// V(G)) such that every node appears in at least one bag, every edge has
// both endpoints in some bag, and the bags containing any fixed node are
// consecutive.  The paper's new parameter is the *shape* of a bag,
// min(width, length), and the *pathshape* ps(G) is the smallest achievable
// maximum bag shape.  Computing ps(G) exactly is NP-hard in general, so the
// package provides exact computation for tiny graphs plus the constructions
// used by Theorem 2's corollaries (interval clique paths, centroid
// decompositions of trees, BFS-layer decompositions of arbitrary graphs).
package decomp

import (
	"fmt"
	"slices"

	"navaug/internal/graph"
)

// PathDecomposition is an ordered sequence of bags over the nodes of a
// graph.  Bags are stored as sorted slices of node ids.
type PathDecomposition struct {
	Bags [][]graph.NodeID
}

// NewPathDecomposition copies and sorts the given bags.
func NewPathDecomposition(bags [][]graph.NodeID) *PathDecomposition {
	pd := &PathDecomposition{Bags: make([][]graph.NodeID, len(bags))}
	for i, bag := range bags {
		cp := slices.Clone(bag)
		slices.Sort(cp)
		pd.Bags[i] = slices.Compact(cp) // drop duplicates within a bag
	}
	return pd
}

// B returns the number of bags.
func (pd *PathDecomposition) B() int { return len(pd.Bags) }

// Validate checks the three path-decomposition conditions against g and
// returns a descriptive error when one fails.
func (pd *PathDecomposition) Validate(g *graph.Graph) error {
	n := g.N()
	first := make([]int, n)
	last := make([]int, n)
	count := make([]int, n)
	for i := range first {
		first[i] = -1
	}
	for idx, bag := range pd.Bags {
		for _, v := range bag {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("decomp: bag %d contains out-of-range node %d", idx, v)
			}
			if first[v] == -1 {
				first[v] = idx
			}
			last[v] = idx
			count[v]++
		}
	}
	for v := 0; v < n; v++ {
		if first[v] == -1 {
			return fmt.Errorf("decomp: node %d appears in no bag", v)
		}
		// Contiguity: the node must appear in every bag between first and last.
		if count[v] != last[v]-first[v]+1 {
			return fmt.Errorf("decomp: node %d appears in non-consecutive bags", v)
		}
	}
	for _, e := range g.Edges() {
		covered := false
		lo := max(first[e.U], first[e.V])
		hi := min(last[e.U], last[e.V])
		if lo <= hi {
			covered = true
		}
		if !covered {
			return fmt.Errorf("decomp: edge (%d,%d) not covered by any bag", e.U, e.V)
		}
	}
	return nil
}

// Width returns max_i |X_i| - 1, the classical pathwidth of this particular
// decomposition.  The empty decomposition has width -1.
func (pd *PathDecomposition) Width() int {
	w := -1
	for _, bag := range pd.Bags {
		if len(bag)-1 > w {
			w = len(bag) - 1
		}
	}
	return w
}

// BagLength returns max_{x,y in bag} dist_G(x,y) using the provided
// distance function.  Unreachable pairs contribute the value of g's node
// count (an effectively infinite length).
func BagLength(bag []graph.NodeID, distFn func(u, v graph.NodeID) int32, n int) int {
	best := 0
	for i := 0; i < len(bag); i++ {
		for j := i + 1; j < len(bag); j++ {
			d := distFn(bag[i], bag[j])
			if d < 0 {
				d = int32(n)
			}
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// Length returns the maximum bag length of the decomposition under the
// given distance function (typically dist.APSP.Dist or a TargetOracle).
func (pd *PathDecomposition) Length(distFn func(u, v graph.NodeID) int32, n int) int {
	best := 0
	for _, bag := range pd.Bags {
		if l := BagLength(bag, distFn, n); l > best {
			best = l
		}
	}
	return best
}

// Shape returns the shape of this decomposition: the maximum over bags of
// min(width(bag), length(bag)).
func (pd *PathDecomposition) Shape(distFn func(u, v graph.NodeID) int32, n int) int {
	best := 0
	for _, bag := range pd.Bags {
		w := len(bag) - 1
		s := w
		// Only compute the quadratic bag length when the width alone does not
		// already determine a small shape.
		if w > 0 {
			l := BagLength(bag, distFn, n)
			if l < s {
				s = l
			}
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Reduce removes bags that are subsets of an adjacent bag.  Reduced
// decompositions never have more than max(1, n-1) bags for connected graphs
// and reducing can only decrease width, length and shape.
func (pd *PathDecomposition) Reduce() *PathDecomposition {
	bags := make([][]graph.NodeID, 0, len(pd.Bags))
	for _, bag := range pd.Bags {
		if len(bags) > 0 {
			prev := bags[len(bags)-1]
			if isSubset(bag, prev) {
				continue
			}
			if isSubset(prev, bag) {
				bags[len(bags)-1] = bag
				continue
			}
		}
		bags = append(bags, bag)
	}
	// A second left-to-right pass does not help with chains of containment
	// created by the replacement above, so run until fixpoint (cheap: the
	// number of bags strictly decreases every effective round).
	for {
		changed := false
		out := bags[:0:0]
		for _, bag := range bags {
			if len(out) > 0 {
				prev := out[len(out)-1]
				if isSubset(bag, prev) {
					changed = true
					continue
				}
				if isSubset(prev, bag) {
					out[len(out)-1] = bag
					changed = true
					continue
				}
			}
			out = append(out, bag)
		}
		bags = out
		if !changed {
			break
		}
	}
	return &PathDecomposition{Bags: bags}
}

// NodeIntervals returns, for every node, the (first, last) bag indices
// (0-based, inclusive) of the bags containing it.  It assumes a valid
// decomposition.
func (pd *PathDecomposition) NodeIntervals(n int) (first, last []int) {
	first = make([]int, n)
	last = make([]int, n)
	for i := range first {
		first[i] = -1
		last[i] = -1
	}
	for idx, bag := range pd.Bags {
		for _, v := range bag {
			if first[v] == -1 {
				first[v] = idx
			}
			last[v] = idx
		}
	}
	return first, last
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []graph.NodeID) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
