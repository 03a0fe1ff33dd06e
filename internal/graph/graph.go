// Package graph provides the immutable undirected graph representation used
// by the navigability simulator.
//
// Graphs are stored in compressed sparse row (CSR) form: a single flat
// adjacency slice plus per-node offsets.  Node identifiers are dense int32
// values in [0, N).  Graphs are built through a Builder and are immutable
// afterwards, which makes them safe for concurrent readers (the Monte Carlo
// engine shares one Graph across many goroutines).
package graph

import (
	"fmt"
	"runtime"
	"sort"

	"navaug/internal/par"
)

// NodeID identifies a node of a Graph.  IDs are dense in [0, N).
type NodeID = int32

// Edge is an undirected edge between two nodes.
type Edge struct {
	U, V NodeID
}

// Graph is an immutable undirected simple graph in CSR form.
type Graph struct {
	n       int32
	m       int64   // number of undirected edges
	offsets []int64 // len n+1
	adj     []int32 // len 2*m, neighbours of node i are adj[offsets[i]:offsets[i+1]]
	name    string
}

// Builder accumulates edges and produces an immutable Graph.
// Self-loops are rejected; duplicate edges are merged.
type Builder struct {
	n     int32
	edges []Edge
	name  string
}

// NewBuilder creates a builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: int32(n)}
}

// SetName attaches a human-readable name reported by Graph.Name.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// AddEdge records the undirected edge {u, v}.  It panics on out-of-range
// endpoints or self-loops; duplicates are allowed and merged at Build time.
// The panic is the right contract for generator code, where a bad edge is a
// programming error; data-driven inputs (delta streams, parsed edge lists)
// go through TryAddEdge instead.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if err := b.TryAddEdge(u, v); err != nil {
		panic(err.Error())
	}
	return b
}

// TryAddEdge records the undirected edge {u, v}, returning an error instead
// of panicking on out-of-range endpoints or self-loops.  This is the entry
// point for external or churned input: a malformed edge in a delta stream
// must surface as an error the caller can reject, never as a process
// crash.  Duplicates are allowed and merged at Build time.
func (b *Builder) TryAddEdge(u, v NodeID) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
	return nil
}

// Build produces the immutable Graph.  The builder may be reused afterwards,
// although that is rarely useful.
func (b *Builder) Build() *Graph {
	n := b.n
	// Normalise edges to (min,max) and deduplicate.
	norm := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		norm = append(norm, Edge{U: u, V: v})
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	dedup := norm[:0]
	for i, e := range norm {
		if i == 0 || e != norm[i-1] {
			dedup = append(dedup, e)
		}
	}

	deg := make([]int64, n+1)
	for _, e := range dedup {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int64, n+1)
	for i := int32(1); i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range dedup {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Sort each adjacency list for deterministic iteration order.
	for u := int32(0); u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		seg := adj[lo:hi]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return &Graph{
		n:       n,
		m:       int64(len(dedup)),
		offsets: offsets,
		adj:     adj,
		name:    b.name,
	}
}

// RawCSR exposes the graph's CSR arrays as shared, read-only slices:
// offsets has length N+1 and adj has length 2·M, with the neighbours of
// node i (sorted increasing) at adj[offsets[i]:offsets[i+1]].  Callers must
// not modify either slice.  This is the serialisation entry point — the
// snapshot writer emits the arrays verbatim and FromCSR reconstructs the
// graph from them without re-running the Builder's sort/dedup pipeline.
func (g *Graph) RawCSR() (offsets []int64, adj []int32) {
	return g.offsets, g.adj
}

// FromCSR reconstructs a Graph directly from CSR arrays, taking ownership
// of the slices (callers must not modify them afterwards; they may alias a
// read-only snapshot buffer).  The arrays must satisfy every invariant
// Build establishes, and FromCSR verifies all of them — offsets monotone
// from 0 with len(adj) entries total, neighbour ids in range, each
// adjacency list strictly increasing (sorted, no duplicates, no
// self-loops), and edge symmetry (v in adj[u] iff u in adj[v]) — so a
// corrupted or hostile serialised graph is rejected instead of breaking
// BFS/routing invariants later.  The total cost is O(n + m log Δ).
//
// The whole offset index is checked before any list is read, so no list
// is ever sliced out of bounds, and a decreasing index outranks a
// neighbour error at an earlier node.  The lists are then checked over
// node ranges on GOMAXPROCS goroutines; the error is always the first one
// a serial walk in node order meets, and every list error outranks an
// asymmetric edge.
func FromCSR(name string, n int, offsets []int64, adj []int32) (*Graph, error) {
	return fromCSR(name, n, offsets, adj, runtime.GOMAXPROCS(0))
}

// csrChunk is the node range a goroutine of FromCSR's list check claims at
// a time; a graph of at most this many nodes is checked on one goroutine.
const csrChunk = 4096

// csrTally is one goroutine's count of the arcs it checked, split by
// direction, and whether an upward arc lacked its reverse.
type csrTally struct {
	up, down int64 // arcs u->v with u < v, and with u > v
	asym     bool
}

func fromCSR(name string, n int, offsets []int64, adj []int32, workers int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: offsets has length %d, want n+1 = %d", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets[n] = %d, adjacency has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency length %d (undirected graphs store each edge twice)", len(adj))
	}
	// With offsets[0] = 0 and offsets[n] = len(adj), a monotone index puts
	// every node's list inside adj.
	for u := 0; u < n; u++ {
		if offsets[u] > offsets[u+1] {
			return nil, fmt.Errorf("graph: offsets decrease at node %d (%d > %d)", u, offsets[u], offsets[u+1])
		}
	}
	g := &Graph{
		n:       int32(n),
		m:       int64(len(adj)) / 2,
		offsets: offsets,
		adj:     adj,
		name:    name,
	}
	tally := make([]csrTally, max(workers, 1))
	if err := par.Ranges(n, csrChunk, workers, func(w, lo, hi int) error {
		return g.checkLists(int32(lo), int32(hi), &tally[w])
	}); err != nil {
		return nil, err
	}
	// Every upward arc u->v found its reverse, a downward arc of v, and
	// distinct arcs have distinct reverses; so when there are as many
	// downward arcs as upward ones, every downward arc is such a reverse
	// and the graph is symmetric.  Otherwise checkSymmetric names the arc
	// a serial walk names.
	var up, down int64
	asym := false
	for _, t := range tally {
		up, down, asym = up+t.up, down+t.down, asym || t.asym
	}
	if asym || up != down {
		if err := g.checkSymmetric(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkLists checks the adjacency lists of nodes [lo, hi) — neighbours in
// range, no self-loop, strictly increasing — and returns the first
// violation in node order, adding its arc counts to t.  For each upward
// arc u->v it also looks u up in v's list, recording a miss in t.asym
// rather than failing, since a list error at any node outranks an
// asymmetric edge.  v's list may be unsorted (another range reports
// that), which can only turn a hit into a miss.
func (g *Graph) checkLists(lo, hi int32, t *csrTally) error {
	n := g.n
	var up, down int64
	asym := false
	for u := lo; u < hi; u++ {
		prev := int32(-1)
		for _, v := range g.adj[g.offsets[u]:g.offsets[u+1]] {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: neighbour %d of node %d out of range [0,%d)", v, u, n)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: adjacency of node %d not strictly increasing (%d after %d)", u, v, prev)
			}
			prev = v
			if v < u {
				down++
				continue
			}
			up++
			if !asym && !g.listHas(v, u) {
				asym = true
			}
		}
	}
	t.up, t.down, t.asym = t.up+up, t.down+down, t.asym || asym
	return nil
}

// listHas reports whether u is in v's list, by binary search (the list is
// assumed sorted; the index must already be checked monotone).
func (g *Graph) listHas(v, u int32) bool {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if lo < hi && g.adj[lo] == u {
		return true // u is v's smallest neighbour, as a tree parent usually is
	}
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if g.adj[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < g.offsets[v+1] && g.adj[lo] == u
}

// checkSymmetric verifies that every arc u->v has its reverse v->u, given
// sorted duplicate-free adjacency lists, in one serial O(n + m) pass;
// FromCSR runs it only to name the arc once its range pass has found the
// graph asymmetric.  Visiting u in increasing order, the arcs into v
// arrive in increasing u, which is exactly the order of v's own sorted
// list when the graph is symmetric; so one cursor per node walks each list
// once, and every arc u->v must find u under v's cursor.  When all arcs
// match, every list has been consumed (there are as many arcs as list
// entries), so nothing else needs checking.
func (g *Graph) checkSymmetric() error {
	cur := make([]int64, g.n)
	copy(cur, g.offsets)
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.adj[g.offsets[u]:g.offsets[u+1]] {
			c := cur[v]
			if c < g.offsets[v+1] && g.adj[c] == u {
				cur[v]++
				continue
			}
			// Name an arc that really lacks its reverse.  If u is in v's
			// list, the cursor stopped short of it at some w < u, and w's
			// list (already walked) has no v.
			a, b := u, v
			if g.HasEdge(v, u) {
				a, b = v, g.adj[c]
			}
			return fmt.Errorf("graph: asymmetric edge %d->%d has no reverse", a, b)
		}
	}
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return int(g.m) }

// Name returns the graph's descriptive name ("" if unset).
func (g *Graph) Name() string { return g.name }

// WithName returns a shallow copy of g carrying the given name.
func (g *Graph) WithName(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u NodeID) int {
	g.check(u)
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the neighbours of u as a shared, read-only slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	g.check(u)
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	nbr := g.Neighbors(u)
	i := sort.Search(len(nbr), func(i int) bool { return nbr[i] >= v })
	return i < len(nbr) && nbr[i] == v
}

// Edges returns a fresh slice of all undirected edges with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	return out
}

// MaxDegree returns the maximum node degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	best := 0
	for u := int32(0); u < g.n; u++ {
		if d := g.Degree(u); d > best {
			best = d
		}
	}
	return best
}

// AverageDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{n=%d m=%d}", name, g.n, g.m)
}

func (g *Graph) check(u NodeID) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}
