package graph

// This file contains structural queries that only depend on the CSR data:
// breadth-first search, connectivity, components, and eccentricity helpers.
// Distance oracles with caching and sampling live in internal/dist; the
// primitives here are allocation-conscious building blocks.
//
// Disconnection contract (churn can sever any graph, so every layer agrees
// on one convention):
//
//   - Pairwise distances use the Unreachable (-1) sentinel: BFS fields,
//     every dist.Source tier, and the routing validator all report an
//     unreachable pair as Unreachable, never as a large finite value.
//   - Whole-graph aggregates that are undefined on disconnected graphs
//     (Eccentricity, Diameter) return -1 rather than silently restricting
//     to a component.
//   - Component-local heuristics (TwoSweepDiameterLowerBound) stay
//     well-defined: they bound the diameter of the start node's component,
//     which is still a lower bound on the graph "diameter" under the
//     max-over-components reading, and they say so in their doc comment.
//   - The simulator neither errors, resamples, nor retries an unreachable
//     sampled pair: it counts it (sim.Estimate.Unreachable, the report
//     `unreachable` column) and excludes it from step aggregates.  Greedy
//     routing cannot spin against MaxSteps even when a stale oracle claims
//     a finite distance for a severed pair: every hop strictly decreases
//     the claimed (distance, id) key, so a walk terminates within the
//     initially claimed distance and surfaces as Reached=false.

// Unreachable marks an unreachable node in distance slices.
const Unreachable int32 = -1

// BFS computes hop distances from src to every node.  Unreachable nodes get
// Unreachable (-1).  The returned slice has length N.
func (g *Graph) BFS(src NodeID) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto runs BFS from src writing distances into dist (which must have
// length N and be pre-filled with Unreachable) and using queue as scratch
// space if it has sufficient capacity.  It returns the number of reached
// nodes including src.  This variant lets hot loops avoid allocation.
func (g *Graph) BFSInto(src NodeID, dist []int32, queue []int32) int {
	g.check(src)
	if len(dist) != int(g.n) {
		panic("graph: BFSInto dist slice has wrong length")
	}
	if cap(queue) < int(g.n) {
		queue = make([]int32, 0, g.n)
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	reached := 1
	// Queued nodes come from the adjacency itself, so they need no range
	// check: read their neighbours from the CSR in place.
	off, adj := g.offsets, g.adj
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range adj[off[u]:off[u+1]] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
				reached++
			}
		}
	}
	return reached
}

// BFSBounded explores the ball of the given radius around src and returns
// the visited nodes in non-decreasing distance order together with their
// distances.  src itself is included at distance 0.
func (g *Graph) BFSBounded(src NodeID, radius int32) (nodes []NodeID, dists []int32) {
	g.check(src)
	if radius < 0 {
		return nil, nil
	}
	seen := make(map[NodeID]int32, 16)
	seen[src] = 0
	nodes = append(nodes, src)
	dists = append(dists, 0)
	for head := 0; head < len(nodes); head++ {
		u := nodes[head]
		du := dists[head]
		if du == radius {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if _, ok := seen[v]; !ok {
				seen[v] = du + 1
				nodes = append(nodes, v)
				dists = append(dists, du+1)
			}
		}
	}
	return nodes, dists
}

// IsConnected reports whether the graph is connected.  The empty graph and
// single-node graph count as connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of node ids.
// Components are ordered by their smallest node id.
func (g *Graph) Components() [][]NodeID {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]NodeID
	queue := make([]int32, 0, g.n)
	for s := int32(0); s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := int32(len(out))
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		members := []NodeID{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = id
					queue = append(queue, v)
					members = append(members, v)
				}
			}
		}
		out = append(out, members)
	}
	return out
}

// Eccentricity returns the maximum BFS distance from u to any reachable
// node.  If some node is unreachable it returns -1.
func (g *Graph) Eccentricity(u NodeID) int32 {
	dist := g.BFS(u)
	ecc := int32(0)
	for _, d := range dist {
		if d == Unreachable {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter by running a BFS from every node.
// It returns -1 for disconnected graphs.  Intended for small graphs and
// tests; use dist.EstimateDiameter for large instances.
func (g *Graph) Diameter() int32 {
	if g.n == 0 {
		return 0
	}
	best := int32(0)
	for u := int32(0); u < g.n; u++ {
		e := g.Eccentricity(u)
		if e < 0 {
			return -1
		}
		if e > best {
			best = e
		}
	}
	return best
}

// TwoSweepDiameterLowerBound returns a lower bound on the diameter using the
// classic double-sweep heuristic: BFS from start, then BFS from the farthest
// node found.  On trees the bound is exact.  On a disconnected graph the
// sweeps never leave start's component, so the result bounds that
// component's diameter (unreachable nodes do not participate; they cannot
// produce a spurious bound).
func (g *Graph) TwoSweepDiameterLowerBound(start NodeID) int32 {
	if g.n == 0 {
		return 0
	}
	d1 := g.BFS(start)
	far := start
	for v, d := range d1 {
		if d > d1[far] {
			far = int32(v)
		}
	}
	d2 := g.BFS(far)
	best := int32(0)
	for _, d := range d2 {
		if d > best {
			best = d
		}
	}
	return best
}

// DegreeHistogram returns a slice h where h[d] is the number of nodes of
// degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for u := int32(0); u < g.n; u++ {
		h[g.Degree(u)]++
	}
	return h
}

// InducedSubgraph returns the subgraph induced by the given nodes along with
// the mapping from new ids to original ids.  Duplicate nodes are ignored.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID) {
	index := make(map[NodeID]int32, len(nodes))
	orig := make([]NodeID, 0, len(nodes))
	for _, u := range nodes {
		g.check(u)
		if _, ok := index[u]; !ok {
			index[u] = int32(len(orig))
			orig = append(orig, u)
		}
	}
	b := NewBuilder(len(orig))
	for newU, u := range orig {
		for _, v := range g.Neighbors(u) {
			if newV, ok := index[v]; ok && int32(newU) < newV {
				b.AddEdge(int32(newU), newV)
			}
		}
	}
	return b.Build(), orig
}
