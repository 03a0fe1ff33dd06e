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
