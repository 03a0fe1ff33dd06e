// Package label implements the integer level/ancestor hierarchy and the
// node labeling used by the paper's Theorem 2 matrix-based augmentation
// scheme.
//
// Every positive integer x has a level, the position of the least
// significant set bit of x, and a chain of ancestors obtained by repeatedly
// rounding x up the implicit binary hierarchy: the ancestor of x at level
// level(x)+j keeps the bits of x above position level(x)+j and sets bit
// level(x)+j.  Applied between consecutive levels the relation forms an
// infinite binary tree whose leaves are the odd integers.
//
// Theorem 2 labels the nodes of a graph through a path decomposition whose
// bags are numbered 1..b: node u receives the index, among the consecutive
// bag indices containing u, of maximum level.  The matrix half of the scheme
// then sends long-range links towards the (nodes labeled with) ancestors of
// the current node's label.
package label

import (
	"fmt"
	"math/bits"

	"navaug/internal/decomp"
	"navaug/internal/graph"
)

// Level returns the level of x >= 1: the position of its least significant
// set bit (level(1)=0, level(2)=1, level(4)=2, level(6)=1, ...).
// It panics for x < 1.
func Level(x int) int {
	if x < 1 {
		panic("label: Level requires x >= 1")
	}
	return bits.TrailingZeros64(uint64(x))
}

// Ancestor returns the ancestor of x at level Level(x)+j (j >= 0).
// Ancestor(x, 0) == x.
func Ancestor(x, j int) int {
	if x < 1 {
		panic("label: Ancestor requires x >= 1")
	}
	if j < 0 {
		panic("label: Ancestor requires j >= 0")
	}
	k := Level(x)
	target := k + j
	if target >= 63 {
		panic("label: Ancestor level overflow")
	}
	// Keep bits strictly above `target`, then set bit `target`.
	high := x &^ ((1 << uint(target+1)) - 1)
	return high | (1 << uint(target))
}

// Ancestors returns all ancestors of x (including x itself) that are at most
// maxValue, in increasing level order.  The slice has at most
// ⌊log2(maxValue)⌋+1 entries, and is allocated once at that capacity.
func Ancestors(x, maxValue int) []int {
	if x < 1 {
		panic("label: Ancestors requires x >= 1")
	}
	if maxValue < 1 {
		return nil
	}
	// Ancestor values are not monotone in j (e.g. A(3) = {3, 2, 4, 8, ...}),
	// but the ancestor at level k+j is at least 2^(k+j), so once that power of
	// two exceeds maxValue no further ancestor can qualify.
	k := Level(x)
	out := make([]int, 0, bits.Len(uint(maxValue)))
	for j := 0; k+j < 62 && (1<<uint(k+j)) <= maxValue; j++ {
		if a := Ancestor(x, j); a <= maxValue {
			out = append(out, a)
		}
	}
	return out
}

// IsAncestor reports whether a is an ancestor of x (including a == x).
func IsAncestor(a, x int) bool {
	if a < 1 || x < 1 {
		panic("label: IsAncestor requires positive integers")
	}
	ka, kx := Level(a), Level(x)
	if ka < kx {
		return false
	}
	return Ancestor(x, ka-kx) == a
}

// LeastCommonAncestorLevel returns the smallest level l >= max(level(x),
// level(y)) at which x and y share an ancestor.  Any two positive integers
// share ancestors at all sufficiently high levels.
func LeastCommonAncestorLevel(x, y int) int {
	if x < 1 || y < 1 {
		panic("label: LeastCommonAncestorLevel requires positive integers")
	}
	for l := maxInt(Level(x), Level(y)); l < 62; l++ {
		if Ancestor(x, l-Level(x)) == Ancestor(y, l-Level(y)) {
			return l
		}
	}
	panic("label: no common ancestor below level 62")
}

// Labeling is the result of labeling a graph's nodes through a path
// decomposition.  Labels are 1-based bag indices in [1, B]; several nodes
// may share a label and some indices may label no node.
type Labeling struct {
	// Labels[v] is the label of node v, in [1, B].
	Labels []int
	// B is the number of bags of the decomposition the labeling came from.
	B int
	// NodesByLabel[l] lists the nodes labeled l (l in [1, B]); index 0 unused.
	NodesByLabel [][]graph.NodeID
}

// FromPathDecomposition computes the Theorem 2 labeling for graph g and the
// given (validated) path decomposition: node u gets the bag index of
// maximum level among the consecutive indices of bags containing u.
func FromPathDecomposition(g *graph.Graph, pd *decomp.PathDecomposition) (*Labeling, error) {
	if err := pd.Validate(g); err != nil {
		return nil, fmt.Errorf("label: invalid decomposition: %w", err)
	}
	n := g.N()
	b := pd.B()
	if n > 0 && b == 0 {
		return nil, fmt.Errorf("label: decomposition has no bags")
	}
	first, last := pd.NodeIntervals(n)
	labels := make([]int, n)
	byLabel := make([][]graph.NodeID, b+1)
	for v := 0; v < n; v++ {
		// Bag indices are 1-based in the paper; node intervals are 0-based.
		lo, hi := first[v]+1, last[v]+1
		best := lo
		for i := lo; i <= hi; i++ {
			if Level(i) > Level(best) {
				best = i
			}
		}
		labels[v] = best
		byLabel[best] = append(byLabel[best], graph.NodeID(v))
	}
	return &Labeling{Labels: labels, B: b, NodesByLabel: byLabel}, nil
}

// MaxLevelIndexInRange returns the unique index of maximum level within the
// closed integer range [lo, hi] (1 <= lo <= hi).  This is the quantity the
// labeling uses; it is exposed for tests and for documentation of the
// "unique maximum level" property.
func MaxLevelIndexInRange(lo, hi int) int {
	if lo < 1 || hi < lo {
		panic("label: MaxLevelIndexInRange requires 1 <= lo <= hi")
	}
	best := lo
	for i := lo + 1; i <= hi; i++ {
		if Level(i) > Level(best) {
			best = i
		}
	}
	return best
}

// Nodes returns the nodes carrying the given label (possibly empty).
func (l *Labeling) Nodes(lbl int) []graph.NodeID {
	if lbl < 1 || lbl > l.B {
		return nil
	}
	return l.NodesByLabel[lbl]
}

// Validate checks structural invariants of the labeling: labels lie in
// [1, B] and NodesByLabel is consistent with Labels.
func (l *Labeling) Validate() error {
	counts := make([]int, l.B+1)
	for v, lbl := range l.Labels {
		if lbl < 1 || lbl > l.B {
			return fmt.Errorf("label: node %d has label %d outside [1,%d]", v, lbl, l.B)
		}
		counts[lbl]++
	}
	for lbl := 1; lbl <= l.B; lbl++ {
		if len(l.NodesByLabel[lbl]) != counts[lbl] {
			return fmt.Errorf("label: NodesByLabel[%d] has %d nodes, Labels says %d",
				lbl, len(l.NodesByLabel[lbl]), counts[lbl])
		}
		for _, v := range l.NodesByLabel[lbl] {
			if l.Labels[v] != lbl {
				return fmt.Errorf("label: node %d listed under label %d but has label %d", v, lbl, l.Labels[v])
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
