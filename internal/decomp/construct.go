package decomp

import (
	"fmt"
	"slices"
	"sort"

	"navaug/internal/graph"
	"navaug/internal/graph/gen"
)

// This file contains the concrete path-decomposition constructions used by
// the Theorem 2 experiments:
//
//   - SingleBag: the trivial decomposition (shape ≤ min(n-1, diam)).
//   - OfPathGraph: the natural width-1 decomposition of a path.
//   - IntervalCliquePath: the clique path of an interval graph, which has
//     length ≤ 1 and therefore shape ≤ 1 (the AT-free corollary).
//   - TreeCentroid: a recursive centroid construction giving width (and thus
//     shape) at most ~log2(n) on any tree.
//   - BFSLayers: the generic fallback for arbitrary graphs (bags are unions
//     of two consecutive BFS layers).
//   - Best: picks the smallest-shape decomposition among the applicable
//     constructions, which is how experiments obtain a pathshape upper bound.

// SingleBag returns the trivial decomposition with one bag holding all
// nodes.
func SingleBag(g *graph.Graph) *PathDecomposition {
	bag := make([]graph.NodeID, g.N())
	for i := range bag {
		bag[i] = graph.NodeID(i)
	}
	return &PathDecomposition{Bags: [][]graph.NodeID{bag}}
}

// OfPathGraph returns the width-1 decomposition of a graph that is a simple
// path: bags {v_i, v_{i+1}} along the path order.  It returns an error if g
// is not a path.
func OfPathGraph(g *graph.Graph) (*PathDecomposition, error) {
	n := g.N()
	if n == 0 {
		return &PathDecomposition{}, nil
	}
	if n == 1 {
		return &PathDecomposition{Bags: [][]graph.NodeID{{0}}}, nil
	}
	if g.M() != n-1 || !g.IsConnected() || g.MaxDegree() > 2 {
		return nil, fmt.Errorf("decomp: graph %v is not a path", g)
	}
	// Find an endpoint and walk.
	var start graph.NodeID = -1
	for u := graph.NodeID(0); int(u) < n; u++ {
		if g.Degree(u) == 1 {
			start = u
			break
		}
	}
	if start == -1 {
		return nil, fmt.Errorf("decomp: graph %v has no degree-1 endpoint", g)
	}
	order := make([]graph.NodeID, 0, n)
	prev := graph.NodeID(-1)
	cur := start
	for {
		order = append(order, cur)
		next := graph.NodeID(-1)
		for _, v := range g.Neighbors(cur) {
			if v != prev {
				next = v
				break
			}
		}
		if next == -1 {
			break
		}
		prev, cur = cur, next
	}
	if len(order) != n {
		return nil, fmt.Errorf("decomp: path walk covered %d of %d nodes", len(order), n)
	}
	bags := make([][]graph.NodeID, 0, n-1)
	for i := 0; i+1 < n; i++ {
		bags = append(bags, []graph.NodeID{order[i], order[i+1]})
	}
	return NewPathDecomposition(bags), nil
}

// IntervalCliquePath builds the clique-path decomposition of an interval
// graph from its interval model.  Bag i (in order of left endpoints) is the
// set of intervals containing the left endpoint of the i-th interval, so
// every bag is a clique and the decomposition has length ≤ 1.
func IntervalCliquePath(model gen.IntervalModel) *PathDecomposition {
	n := len(model)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return model[order[a]].Lo < model[order[b]].Lo })
	bags := make([][]graph.NodeID, 0, n)
	// Sweep by left endpoint keeping the set of intervals that are still
	// "open" (their right endpoint has not been passed), so the total work is
	// proportional to the sum of bag sizes rather than n².
	active := make([]int, 0, 8)
	for _, v := range order {
		point := model[v].Lo
		keep := active[:0]
		bag := make([]graph.NodeID, 0, 8)
		for _, u := range active {
			if model[u].Hi >= point {
				keep = append(keep, u)
				bag = append(bag, graph.NodeID(u))
			}
		}
		active = append(keep, v)
		bag = append(bag, graph.NodeID(v))
		bags = append(bags, bag)
	}
	return NewPathDecomposition(bags).Reduce()
}

// TreeCentroid builds a path decomposition of a tree with width at most
// about log2(n): it finds a centroid, recursively decomposes each remaining
// component, concatenates those decompositions and adds the centroid to
// every bag.  It returns an error if g is not a tree.
func TreeCentroid(g *graph.Graph) (*PathDecomposition, error) {
	n := g.N()
	if n == 0 {
		return &PathDecomposition{}, nil
	}
	if g.M() != n-1 || !g.IsConnected() {
		return nil, fmt.Errorf("decomp: graph %v is not a tree", g)
	}
	return (&PathDecomposition{Bags: centroidBags(g)}).Reduce(), nil
}

// centroidScratch is the n-sized workspace of one TreeCentroid call.  Every
// recursion level stamps its node set with a fresh epoch instead of
// building per-level hash sets, so the whole decomposition allocates O(n)
// scratch once.
type centroidScratch struct {
	g     *graph.Graph
	epoch uint32
	in    []uint32       // in[v] == epoch: v is in the current level's set
	size  []int32        // subtree sizes of the centroid search
	par   []graph.NodeID // parents of the centroid search
	order []graph.NodeID // centroid search preorder, capacity n
	stack []graph.NodeID // capacity n
	nodes []graph.NodeID // every level's node set, a disjoint range of it
	path  []graph.NodeID // centroids of the enclosing levels
	bags  [][]graph.NodeID
}

// centroidBags returns the bags of the centroid decomposition of the tree
// g.  Bag i is the i-th recursion leaf plus the centroids of every level
// above it, sorted; it holds no duplicates, because a leaf is never one of
// its own ancestors' centroids.
func centroidBags(g *graph.Graph) [][]graph.NodeID {
	n := g.N()
	ws := &centroidScratch{
		g:     g,
		in:    make([]uint32, n),
		size:  make([]int32, n),
		par:   make([]graph.NodeID, n),
		order: make([]graph.NodeID, 0, n),
		stack: make([]graph.NodeID, 0, n),
		nodes: make([]graph.NodeID, n),
	}
	for i := range ws.nodes {
		ws.nodes[i] = graph.NodeID(i)
	}
	ws.split(ws.nodes)
	return ws.bags
}

// split decomposes the subtree induced by nodes, which must be connected.
// It finds the centroid c, then lays each component of nodes \ {c} out in
// nodes in BFS order from c's neighbours and recurses into it before
// searching for the next: a level below only re-stamps its own nodes, and
// those are already out of the current set.
func (ws *centroidScratch) split(nodes []graph.NodeID) {
	if len(nodes) == 1 {
		bag := append(append(make([]graph.NodeID, 0, len(ws.path)+1), nodes[0]), ws.path...)
		slices.Sort(bag)
		ws.bags = append(ws.bags, bag)
		return
	}
	ws.epoch++
	e := ws.epoch
	for _, v := range nodes {
		ws.in[v] = e
	}
	c := ws.centroid(nodes)
	ws.in[c] = 0
	ws.path = append(ws.path, c)
	next := 0
	for _, root := range ws.g.Neighbors(c) {
		if ws.in[root] != e {
			continue
		}
		start := next
		ws.in[root] = 0
		nodes[next] = root
		next++
		for head := start; head < next; head++ {
			for _, v := range ws.g.Neighbors(nodes[head]) {
				if ws.in[v] == e {
					ws.in[v] = 0
					nodes[next] = v
					next++
				}
			}
		}
		ws.split(nodes[start:next])
	}
	ws.path = ws.path[:len(ws.path)-1]
}

// centroid returns a node of the current set (stamped ws.epoch in ws.in)
// whose removal leaves components of size at most len(nodes)/2.
func (ws *centroidScratch) centroid(nodes []graph.NodeID) graph.NodeID {
	e := ws.epoch
	total := int32(len(nodes))
	root := nodes[0]
	// Iterative DFS preorder over the induced subtree, then subtree sizes
	// in reverse preorder.  The set induces a tree, so the only neighbour
	// of u in it that the search has already reached is u's parent.
	order, stack := ws.order[:0], append(ws.stack[:0], root)
	ws.par[root] = -1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		ws.size[u] = 1
		for _, v := range ws.g.Neighbors(u) {
			if ws.in[v] == e && v != ws.par[u] {
				ws.par[v] = u
				stack = append(stack, v)
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		u := order[i]
		ws.size[ws.par[u]] += ws.size[u]
	}
	// The centroid is the node where the largest component after removal is
	// minimal; walking down from the root towards the heaviest child finds it.
	best := root
	bestWorst := total
	for _, u := range order {
		worst := total - ws.size[u] // the component containing the parent side
		for _, v := range ws.g.Neighbors(u) {
			if ws.in[v] == e && ws.par[v] == u && ws.size[v] > worst {
				worst = ws.size[v]
			}
		}
		if worst < bestWorst {
			bestWorst = worst
			best = u
		}
	}
	return best
}

// BFSLayers builds the generic path decomposition whose i-th bag is the
// union of BFS layers i and i+1 from the given root.  Every edge of a graph
// joins nodes in the same or adjacent layers, so this is always a valid path
// decomposition.  Width is governed by the largest pair of adjacent layers.
func BFSLayers(g *graph.Graph, root graph.NodeID) (*PathDecomposition, error) {
	if g.N() == 0 {
		return &PathDecomposition{}, nil
	}
	dist := g.BFS(root)
	maxD := int32(0)
	for _, d := range dist {
		if d == graph.Unreachable {
			return nil, fmt.Errorf("decomp: BFSLayers requires a connected graph")
		}
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]graph.NodeID, maxD+1)
	for v, d := range dist {
		layers[d] = append(layers[d], graph.NodeID(v))
	}
	if maxD == 0 {
		return NewPathDecomposition([][]graph.NodeID{layers[0]}), nil
	}
	bags := make([][]graph.NodeID, 0, maxD)
	for i := int32(0); i < maxD; i++ {
		bag := append(append([]graph.NodeID(nil), layers[i]...), layers[i+1]...)
		bags = append(bags, bag)
	}
	return NewPathDecomposition(bags).Reduce(), nil
}

// Best returns the decomposition of smallest shape among the constructions
// that apply to g, together with that shape value.  The distFn is used to
// evaluate bag lengths.  Best always succeeds on connected graphs because
// BFSLayers and SingleBag always apply.
func Best(g *graph.Graph, distFn func(u, v graph.NodeID) int32) (*PathDecomposition, int) {
	type candidate struct {
		pd  *PathDecomposition
		err error
	}
	var cands []candidate
	if pd, err := OfPathGraph(g); err == nil {
		cands = append(cands, candidate{pd: pd})
	}
	if pd, err := TreeCentroid(g); err == nil {
		cands = append(cands, candidate{pd: pd})
	}
	if pd, err := BFSLayers(g, 0); err == nil {
		cands = append(cands, candidate{pd: pd})
	}
	cands = append(cands, candidate{pd: SingleBag(g)})

	bestShape := -1
	var bestPD *PathDecomposition
	for _, c := range cands {
		if c.pd == nil || c.pd.B() == 0 {
			continue
		}
		s := c.pd.Shape(distFn, g.N())
		if bestShape == -1 || s < bestShape {
			bestShape = s
			bestPD = c.pd
		}
	}
	return bestPD, bestShape
}
