package graph

import "fmt"

// DynGraph is a mutable edge insert/delete overlay over an immutable CSR
// base graph.  It is the churn substrate: the base Graph stays shared and
// untouched (every reader that holds it keeps its exact view), while the
// overlay records which base edges are currently deleted and which extra
// edges have been inserted, per node, as small sorted slices.
//
// Cost model: the overlay is built for streams that touch a small fraction
// of the edge set between compactions.  It is indexed densely by node — two
// slice headers per node, 48 B/node on 64-bit — so finding a node's delta
// is an array read, not a hash lookup.  Read paths merge the base adjacency
// with the delta only on touched nodes; untouched nodes are read from the
// base CSR in place, and with an empty overlay every read path (BFSInto,
// Compact) delegates straight to the base CSR, byte-identical and
// allocation-free.  Periodic Rebase calls fold the overlay into a fresh CSR
// (identical to what Builder would produce from the same edge set) and
// clear it.
//
// Mutations go through Apply, which validates the whole delta batch against
// the current state before touching anything: an invalid delta (out of
// range, self-loop, inserting an existing edge, deleting a missing one)
// rejects the entire batch with an error and leaves the graph unchanged.
// Every applied batch bumps the generation counter — the handle that
// distance oracles and field caches use to refuse serving answers for a
// graph state they have not seen (see dist.DynTwoHop).  Compaction does not change the edge set, so it
// does not change the generation.
//
// A DynGraph is not safe for concurrent use; the churn pipeline owns it
// single-threaded.  Concurrent readers that must survive mutation read
// through generation-stamped immutable artefacts instead (compacted CSRs,
// oracle states).
type DynGraph struct {
	base *Graph
	add  [][]NodeID // extra neighbours per node, sorted
	del  [][]NodeID // deleted base neighbours per node, sorted
	used int        // non-empty slices across add and del
	m    int64      // current undirected edge count
	gen  uint64     // number of applied delta batches
}

// DeltaOp says what a Delta does to its edge.
type DeltaOp uint8

const (
	// DeltaInsert inserts the edge {U, V}; it must not currently exist.
	DeltaInsert DeltaOp = iota
	// DeltaDelete deletes the edge {U, V}; it must currently exist.
	DeltaDelete
)

// Delta is one edge mutation of a churn stream.
type Delta struct {
	U, V NodeID
	Op   DeltaOp
}

// NewDynGraph wraps base in an empty overlay at generation 0.
func NewDynGraph(base *Graph) *DynGraph {
	return &DynGraph{
		base: base,
		add:  make([][]NodeID, base.n),
		del:  make([][]NodeID, base.n),
		m:    base.m,
	}
}

// Base returns the immutable CSR the overlay currently sits on.
func (d *DynGraph) Base() *Graph { return d.base }

// N returns the number of nodes (churn mutates edges only).
func (d *DynGraph) N() int { return d.base.N() }

// Gen returns the generation: the number of delta batches applied since
// creation.  Rebase preserves it — compaction changes the representation,
// not the graph.
func (d *DynGraph) Gen() uint64 { return d.gen }

// OverlayEmpty reports whether the overlay holds no pending deltas, i.e.
// the graph currently equals its base CSR exactly.
func (d *DynGraph) OverlayEmpty() bool { return d.used == 0 }

// Degree returns the current number of neighbours of u.
func (d *DynGraph) Degree(u NodeID) int {
	return d.base.Degree(u) - len(d.del[u]) + len(d.add[u])
}

// HasEdge reports whether {u, v} is currently an edge.
func (d *DynGraph) HasEdge(u, v NodeID) bool {
	d.base.check(u)
	if containsSorted(d.add[u], v) {
		return true
	}
	return d.base.HasEdge(u, v) && !containsSorted(d.del[u], v)
}

// AppendNeighbors appends the current neighbours of u, sorted increasing,
// to buf and returns the extended slice.  When the node is untouched by the
// overlay this is a straight copy of the base adjacency.
func (d *DynGraph) AppendNeighbors(buf []NodeID, u NodeID) []NodeID {
	baseNbr := d.base.Neighbors(u)
	dels, adds := d.del[u], d.add[u]
	// One merge pass over (base \ del) and add: all three are sorted, del
	// is a subset of base and add is disjoint from it, so the output stays
	// sorted and duplicate-free.
	j, k := 0, 0
	for _, v := range baseNbr {
		if j < len(dels) && dels[j] == v {
			j++
			continue
		}
		for k < len(adds) && adds[k] < v {
			buf = append(buf, adds[k])
			k++
		}
		buf = append(buf, v)
	}
	return append(buf, adds[k:]...)
}

// Edges returns a fresh slice of all current undirected edges with U < V.
func (d *DynGraph) Edges() []Edge {
	out := make([]Edge, 0, d.m)
	var nbr []NodeID
	for u := int32(0); u < int32(d.N()); u++ {
		nbr = d.AppendNeighbors(nbr[:0], u)
		for _, v := range nbr {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	return out
}

// Apply validates and applies one delta batch, bumping the generation by
// one.  Validation covers the entire batch against the current state plus
// the batch's own earlier deltas (a delete followed by a re-insert of the
// same edge is legal); any invalid delta rejects the whole batch with an
// error and leaves the graph — and its generation — untouched.
func (d *DynGraph) Apply(deltas []Delta) error {
	n := NodeID(d.N())
	pending := make(map[[2]NodeID]bool, len(deltas))
	for i, dl := range deltas {
		u, v := dl.U, dl.V
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return fmt.Errorf("graph: delta %d: edge (%d,%d) out of range [0,%d)", i, dl.U, dl.V, n)
		}
		if u == v {
			return fmt.Errorf("graph: delta %d: self-loop at node %d", i, u)
		}
		key := [2]NodeID{u, v}
		exists, seen := pending[key]
		if !seen {
			exists = d.HasEdge(u, v)
		}
		switch dl.Op {
		case DeltaInsert:
			if exists {
				return fmt.Errorf("graph: delta %d: edge (%d,%d) already exists", i, u, v)
			}
			pending[key] = true
		case DeltaDelete:
			if !exists {
				return fmt.Errorf("graph: delta %d: edge (%d,%d) does not exist", i, u, v)
			}
			pending[key] = false
		default:
			return fmt.Errorf("graph: delta %d: unknown op %d", i, dl.Op)
		}
	}
	for _, dl := range deltas {
		d.applyOne(dl)
	}
	d.gen++
	return nil
}

// applyOne applies one pre-validated delta to the overlay.
func (d *DynGraph) applyOne(dl Delta) {
	switch dl.Op {
	case DeltaInsert:
		d.insertHalf(dl.U, dl.V)
		d.insertHalf(dl.V, dl.U)
		d.m++
	case DeltaDelete:
		d.deleteHalf(dl.U, dl.V)
		d.deleteHalf(dl.V, dl.U)
		d.m--
	}
}

func (d *DynGraph) insertHalf(u, v NodeID) {
	// Re-inserting a deleted base edge un-deletes it; otherwise it goes to
	// the add overlay.
	if s, ok := removeSorted(d.del[u], v); ok {
		d.setOverlay(&d.del[u], s)
		return
	}
	d.setOverlay(&d.add[u], insertSorted(d.add[u], v))
}

func (d *DynGraph) deleteHalf(u, v NodeID) {
	// Deleting an overlay-inserted edge removes it from add; otherwise the
	// base edge is shadowed via the del overlay.
	if s, ok := removeSorted(d.add[u], v); ok {
		d.setOverlay(&d.add[u], s)
		return
	}
	d.setOverlay(&d.del[u], insertSorted(d.del[u], v))
}

// setOverlay stores s in the overlay slot, keeping the count of non-empty
// slots exact so OverlayEmpty (and with it the zero-overlay fast paths)
// stays O(1).
func (d *DynGraph) setOverlay(slot *[]NodeID, s []NodeID) {
	switch {
	case len(*slot) == 0 && len(s) > 0:
		d.used++
	case len(*slot) > 0 && len(s) == 0:
		d.used--
	}
	*slot = s
}

// BFSInto runs BFS from src on the current graph into pre-filled scratch,
// mirroring Graph.BFSInto.  With an empty overlay it delegates to the base
// CSR — same code path, zero extra allocations.  Otherwise it reads each
// untouched node's neighbours from the base CSR in place and merges only
// touched ones.
func (d *DynGraph) BFSInto(src NodeID, dist []int32, queue []int32) int {
	if d.OverlayEmpty() {
		return d.base.BFSInto(src, dist, queue)
	}
	d.base.check(src)
	if len(dist) != d.N() {
		panic("graph: BFSInto dist slice has wrong length")
	}
	if cap(queue) < d.N() {
		queue = make([]int32, 0, d.N())
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	reached := 1
	var merged []NodeID
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		nbr := d.base.adj[d.base.offsets[u]:d.base.offsets[u+1]]
		if len(d.add[u]) > 0 || len(d.del[u]) > 0 {
			merged = d.AppendNeighbors(merged[:0], u)
			nbr = merged
		}
		for _, v := range nbr {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
				reached++
			}
		}
	}
	return reached
}

// Compact folds the overlay into a fresh immutable CSR identical — byte for
// byte — to what Builder.Build would produce from the current edge set.
// With an empty overlay it returns the base Graph itself (pointer
// identity), so the static path allocates nothing.
func (d *DynGraph) Compact() *Graph {
	if d.OverlayEmpty() {
		return d.base
	}
	n := d.base.n
	offsets := make([]int64, n+1)
	for u := int32(0); u < n; u++ {
		offsets[u+1] = offsets[u] + int64(d.Degree(u))
	}
	adj := make([]int32, offsets[n])
	var nbr []NodeID
	for u := int32(0); u < n; u++ {
		nbr = d.AppendNeighbors(nbr[:0], u)
		copy(adj[offsets[u]:offsets[u+1]], nbr)
	}
	return &Graph{
		n:       n,
		m:       offsets[n] / 2,
		offsets: offsets,
		adj:     adj,
		name:    d.base.name,
	}
}

// Rebase compacts the overlay into a fresh base CSR and clears it,
// returning the new base.  The edge set — and therefore the generation — is
// unchanged: Rebase is a representation change, and generation-checked
// consumers keep serving across it.
func (d *DynGraph) Rebase() *Graph {
	g := d.Compact()
	d.base = g
	clear(d.add)
	clear(d.del)
	d.used = 0
	return g
}

// containsSorted reports whether sorted slice s contains v.
func containsSorted(s []NodeID, v NodeID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// insertSorted inserts v into sorted slice s, keeping it sorted.  v must
// not already be present.
func insertSorted(s []NodeID, v NodeID) []NodeID {
	i, hi := 0, len(s)
	for i < hi {
		mid := (i + hi) / 2
		if s[mid] < v {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted removes v from sorted slice s, reporting whether it was
// present.
func removeSorted(s []NodeID, v NodeID) ([]NodeID, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) || s[lo] != v {
		return s, false
	}
	copy(s[lo:], s[lo+1:])
	return s[:len(s)-1], true
}
