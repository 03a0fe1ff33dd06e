// Package gen provides generators for the graph families used throughout
// the paper's experiments: paths, cycles, meshes, trees, AT-free graphs and
// assorted random families.  Deterministic families take only size
// parameters; random families additionally take an xrand.RNG so experiments
// stay reproducible.  ByName is the one table from a family name and a
// target size to a generator call.
//
// All generators return connected graphs unless documented otherwise, and
// panic on nonsensical size parameters (these are programming errors, not
// runtime conditions).
package gen

import (
	"fmt"

	"navaug/internal/graph"
)

// Path returns the path graph P_n with nodes 0-1-2-...-(n-1).
func Path(n int) *graph.Graph {
	requirePositive(n, "Path")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("path-%d", n))
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Cycle returns the cycle graph C_n.  It requires n >= 3.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle requires n >= 3")
	}
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("cycle-%d", n))
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	requirePositive(n, "Complete")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("complete-%d", n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with centre 0.
func Star(n int) *graph.Graph {
	requirePositive(n, "Star")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("star-%d", n))
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// Grid2D returns the rows x cols mesh.  Node (r,c) has id r*cols+c.
func Grid2D(rows, cols int) *graph.Graph {
	requirePositive(rows, "Grid2D rows")
	requirePositive(cols, "Grid2D cols")
	b := graph.NewBuilder(rows * cols).SetName(fmt.Sprintf("grid-%dx%d", rows, cols))
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	return b.Build()
}

// Torus2D returns the rows x cols torus (grid with wraparound edges).
// Both dimensions must be at least 3 to keep the graph simple.
func Torus2D(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: Torus2D requires rows, cols >= 3")
	}
	b := graph.NewBuilder(rows * cols).SetName(fmt.Sprintf("torus-%dx%d", rows, cols))
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id((r+1)%rows, c))
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
		}
	}
	return b.Build()
}

// Grid3D returns the x*y*z three-dimensional mesh.
func Grid3D(x, y, z int) *graph.Graph {
	requirePositive(x, "Grid3D x")
	requirePositive(y, "Grid3D y")
	requirePositive(z, "Grid3D z")
	b := graph.NewBuilder(x * y * z).SetName(fmt.Sprintf("grid3d-%dx%dx%d", x, y, z))
	id := func(i, j, k int) int32 { return int32((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x {
					b.AddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < y {
					b.AddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < z {
					b.AddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube Q_d with 2^d nodes.
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 30 {
		panic("gen: Hypercube dimension out of range [0,30]")
	}
	n := 1 << uint(d)
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("hypercube-%d", d))
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// BalancedTree returns the complete arity-ary tree of the given depth
// (depth 0 is a single node).  Node 0 is the root and children of node v are
// contiguous, in breadth-first order.
func BalancedTree(arity, depth int) *graph.Graph {
	if arity < 1 {
		panic("gen: BalancedTree requires arity >= 1")
	}
	if depth < 0 {
		panic("gen: BalancedTree requires depth >= 0")
	}
	// count nodes
	n := 1
	levelSize := 1
	for d := 0; d < depth; d++ {
		levelSize *= arity
		n += levelSize
	}
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("tree-%dary-d%d", arity, depth))
	// Breadth-first numbering: children of node v are arity*v+1 .. arity*v+arity.
	for v := 0; v < n; v++ {
		for c := 1; c <= arity; c++ {
			child := arity*v + c
			if child < n {
				b.AddEdge(int32(v), int32(child))
			}
		}
	}
	return b.Build()
}

// BinaryTree returns the complete binary tree with exactly n nodes
// (heap numbering: children of v are 2v+1, 2v+2).
func BinaryTree(n int) *graph.Graph {
	requirePositive(n, "BinaryTree")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("bintree-%d", n))
	for v := 0; v < n; v++ {
		if l := 2*v + 1; l < n {
			b.AddEdge(int32(v), int32(l))
		}
		if r := 2*v + 2; r < n {
			b.AddEdge(int32(v), int32(r))
		}
	}
	return b.Build()
}

// Caterpillar returns a caterpillar tree: a spine path of spine nodes where
// every spine node carries legs pendant leaves.  Total size spine*(1+legs).
func Caterpillar(spine, legs int) *graph.Graph {
	requirePositive(spine, "Caterpillar spine")
	if legs < 0 {
		panic("gen: Caterpillar requires legs >= 0")
	}
	n := spine * (1 + legs)
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("caterpillar-%dx%d", spine, legs))
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(i), int32(next))
			next++
		}
	}
	return b.Build()
}

// Spider returns a spider (a set of legs paths of length legLen glued at a
// centre node 0).  Total size 1 + legs*legLen.
func Spider(legs, legLen int) *graph.Graph {
	if legs < 1 || legLen < 1 {
		panic("gen: Spider requires legs >= 1 and legLen >= 1")
	}
	n := 1 + legs*legLen
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("spider-%dx%d", legs, legLen))
	next := int32(1)
	for l := 0; l < legs; l++ {
		prev := int32(0)
		for s := 0; s < legLen; s++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// Comb returns a comb: a spine path of spine nodes with a tooth path of
// length toothLen hanging off every spine node.  Combs have pathwidth 1 but
// unbounded pathlength, which makes them useful pathshape test cases.
func Comb(spine, toothLen int) *graph.Graph {
	requirePositive(spine, "Comb spine")
	if toothLen < 0 {
		panic("gen: Comb requires toothLen >= 0")
	}
	n := spine * (1 + toothLen)
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("comb-%dx%d", spine, toothLen))
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	next := int32(spine)
	for i := 0; i < spine; i++ {
		prev := int32(i)
		for s := 0; s < toothLen; s++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// Lollipop returns a lollipop graph: a clique of cliqueSize nodes attached
// to a path of pathLen extra nodes.
func Lollipop(cliqueSize, pathLen int) *graph.Graph {
	requirePositive(cliqueSize, "Lollipop clique")
	if pathLen < 0 {
		panic("gen: Lollipop requires pathLen >= 0")
	}
	n := cliqueSize + pathLen
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("lollipop-%d+%d", cliqueSize, pathLen))
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	prev := int32(cliqueSize - 1)
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, int32(cliqueSize+i))
		prev = int32(cliqueSize + i)
	}
	return b.Build()
}

// Barbell returns two cliques of cliqueSize nodes joined by a path of
// pathLen intermediate nodes.
func Barbell(cliqueSize, pathLen int) *graph.Graph {
	requirePositive(cliqueSize, "Barbell clique")
	if pathLen < 0 {
		panic("gen: Barbell requires pathLen >= 0")
	}
	n := 2*cliqueSize + pathLen
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("barbell-%d+%d", cliqueSize, pathLen))
	clique := func(start int) {
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				b.AddEdge(int32(start+i), int32(start+j))
			}
		}
	}
	clique(0)
	clique(cliqueSize + pathLen)
	prev := int32(cliqueSize - 1)
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, int32(cliqueSize+i))
		prev = int32(cliqueSize + i)
	}
	b.AddEdge(prev, int32(cliqueSize+pathLen))
	return b.Build()
}

func requirePositive(n int, what string) {
	if n < 1 {
		panic("gen: " + what + " requires n >= 1")
	}
}
