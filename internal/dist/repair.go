package dist

import (
	"fmt"
	"slices"
	"sync/atomic"

	"navaug/internal/graph"
)

// DynTwoHop is an exact 2-hop-cover distance oracle over a churning
// graph.DynGraph, repaired incrementally instead of rebuilt per batch.
//
// # Why stale base labels still answer clean pairs exactly
//
// Let G_old -> G_new be one applied delta batch with endpoint set E (every
// node incident to an inserted or deleted edge), and define the dirty set
//
//	D = { w : d_old(w, e) != d_new(w, e) for some e in E }.
//
// Claim: for u, v both outside D, d_old(u, v) = d_new(u, v).  Suppose the
// distance decreased.  A shortest G_new u–v path must use an inserted edge
// (otherwise it exists in G_old); let (a, b) be the first one, a, b in E.
// Its prefix gives d_new(u, v) >= d_new(u, a) + 1 + d_new(b, v), and
// cleanliness of u and v turns both terms into old distances.  In G_old,
// d_old(a, v) = d_new(a, v) <= 1 + d_new(b, v) (the edge exists in G_new,
// and a is in E with v clean), so the triangle inequality through a gives
// d_old(u, v) <= d_old(u, a) + 1 + d_old(b, v) <= d_new(u, v) — a
// contradiction.  An increase is refuted symmetrically on a shortest G_old
// path through its first deleted edge, using the triangle inequality in
// G_new.  The argument covers mixed insert/delete batches.  Hence the
// ORIGINAL label arrays — built on an older graph — still answer every
// clean pair exactly; only pairs touching D can be wrong.
//
// # Repair model
//
// Each applied batch computes D exactly (BFS from every endpoint on the old
// and the new graph, diffed) and adds it to the debt set.  A repair budget
// then patches debt nodes in ascending node id: a patch is one exact BFS
// field from the node on the current graph, stamped with the current
// generation.  A query prefers the fresher endpoint's patch, falling back
// to the base labels when neither endpoint was ever dirtied.  When the debt
// set is empty the oracle is query-equivalent to a full rebuild (the
// disttest conformance suite pins this); nodes still in debt serve their
// last-known answers — that bounded staleness, as a function of the budget,
// is exactly what experiment E13 measures.  Rebuild (the compaction path)
// re-labels from scratch and clears all patches and debt.
//
// # Concurrency
//
// All reads go through one atomic pointer to an immutable state; ApplyBatch
// and Rebuild construct a fresh state and swap it in.  Dist is therefore
// safe for any number of concurrent readers against one writer (the churn
// pipeline), which the race-detector soak exercises.  Writers are not safe
// against each other.
type DynTwoHop struct {
	opts  TwoHopOptions
	state atomic.Pointer[dynTwoHopState]
}

type dynTwoHopState struct {
	base *TwoHop
	n    int
	gen  uint64 // graph generation this state answers for

	// patchIdx[u] indexes patches, -1 when u has no patch.  Dense so the
	// query hot path pays an array read, not a map lookup.
	patchIdx []int32
	patches  []dynPatch

	// debt holds dirty nodes not yet re-patched at their latest dirtying,
	// sorted ascending.  Their answers (old patch or base labels) may be
	// stale until a later batch's budget — or a rebuild — drains them.
	debt []graph.NodeID

	stats DynTwoHopStats
}

// dynPatch is one repaired node: its exact BFS field at generation gen.
type dynPatch struct {
	node  graph.NodeID
	gen   uint64
	field []int32
}

// DynTwoHopStats summarises the repair history of a DynTwoHop.
type DynTwoHopStats struct {
	// Gen is the graph generation the oracle currently answers for.
	Gen uint64
	// Debt is the number of dirty nodes still serving stale answers.
	Debt int
	// Patched is the number of nodes currently carrying a patch field.
	Patched int
	// DirtyTotal counts dirty-set members summed over all batches;
	// PatchedTotal counts patch BFS runs; Rebuilds counts full re-labelings.
	DirtyTotal   int64
	PatchedTotal int64
	Rebuilds     int64
}

// NewDynTwoHop builds the base labels for the current state of d (compacted
// if the overlay is non-empty) and returns an oracle at d's generation.
// The options follow NewTwoHopWith, except that a MaxAvgLabel budget abort
// is an error here — a churn pipeline needs an oracle, not a nil fallback.
func NewDynTwoHop(d *graph.DynGraph, opts TwoHopOptions) (*DynTwoHop, error) {
	t := &DynTwoHop{opts: opts}
	if err := t.rebuild(d.Compact(), d.Gen()); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuild labels g from scratch and installs a fresh state at gen.
func (t *DynTwoHop) rebuild(g *graph.Graph, gen uint64) error {
	base := NewTwoHopWith(g, t.opts)
	if base == nil {
		return fmt.Errorf("dist: 2-hop label build aborted by MaxAvgLabel budget %.0f on %s", t.opts.MaxAvgLabel, g)
	}
	idx := make([]int32, g.N())
	for i := range idx {
		idx[i] = -1
	}
	var prev DynTwoHopStats
	if s := t.state.Load(); s != nil {
		prev = s.stats
	}
	st := &dynTwoHopState{base: base, n: g.N(), gen: gen, patchIdx: idx}
	st.stats = prev
	st.stats.Gen = gen
	st.stats.Debt = 0
	st.stats.Patched = 0
	st.stats.Rebuilds++
	t.state.Store(st)
	return nil
}

// Rebuild re-labels the oracle from scratch on the current state of d —
// the compaction path: the churn pipeline rebases the DynGraph and rebuilds
// the oracle over the fresh CSR, clearing every patch and all debt.
func (t *DynTwoHop) Rebuild(d *graph.DynGraph) error {
	return t.rebuild(d.Compact(), d.Gen())
}

// N returns the node count, letting the routing validator check the oracle
// against the graph it routes on.
func (t *DynTwoHop) N() int { return t.state.Load().n }

// Gen returns the graph generation the oracle currently answers for.
func (t *DynTwoHop) Gen() uint64 { return t.state.Load().gen }

// Debt returns the number of nodes currently serving stale answers.
func (t *DynTwoHop) Debt() int { return len(t.state.Load().debt) }

// Stats returns the repair counters.
func (t *DynTwoHop) Stats() DynTwoHopStats { return t.state.Load().stats }

// CheckGen fails loud when the oracle's generation differs from the
// caller's graph generation: an oracle that missed a batch (or raced a
// compaction) must never silently serve distances for a graph state it has
// not seen.
func (t *DynTwoHop) CheckGen(gen uint64) error {
	if have := t.Gen(); have != gen {
		return fmt.Errorf("dist: stale 2-hop oracle: oracle at graph generation %d, graph at %d (every DynGraph.Apply must go through ApplyBatch)", have, gen)
	}
	return nil
}

// Dist implements Source.  The fresher-patched endpoint answers first (its
// field is exact for the pair whenever both endpoints are out of debt — see
// the package comment's dirty-set argument), then the base labels.
func (t *DynTwoHop) Dist(u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	s := t.state.Load()
	iu, iv := s.patchIdx[u], s.patchIdx[v]
	if iu >= 0 {
		if iv >= 0 && s.patches[iv].gen > s.patches[iu].gen {
			return s.patches[iv].field[u]
		}
		return s.patches[iu].field[v]
	}
	if iv >= 0 {
		return s.patches[iv].field[u]
	}
	return s.base.Dist(u, v)
}

// ApplyBatch applies one delta batch to d and repairs the oracle: it
// computes the exact dirty set (old/new BFS diff from every delta
// endpoint), merges it into the debt set, patches up to budget debt nodes
// (budget < 0 means unlimited, 0 means track debt only), and swaps in a
// state at d's new generation.  It returns the dirty set, sorted ascending
// — the churn pipeline resamples those nodes' augmentation contacts.
//
// The oracle must be at d's current generation when called (every Apply on
// d has to go through here); otherwise it fails loud without mutating d.
func (t *DynTwoHop) ApplyBatch(d *graph.DynGraph, deltas []graph.Delta, budget int) ([]graph.NodeID, error) {
	old := t.state.Load()
	if old.n != d.N() {
		return nil, fmt.Errorf("dist: oracle covers %d nodes, graph has %d", old.n, d.N())
	}
	if err := t.CheckGen(d.Gen()); err != nil {
		return nil, err
	}

	// Unique delta endpoints, sorted for a deterministic BFS order.
	endpoints := make([]graph.NodeID, 0, 2*len(deltas))
	for _, dl := range deltas {
		endpoints = append(endpoints, dl.U, dl.V)
	}
	slices.Sort(endpoints)
	endpoints = slices.Compact(endpoints)

	// One BFS queue serves every field of the batch.
	queue := make([]int32, 0, d.N())
	oldFields := make([][]int32, len(endpoints))
	for i, e := range endpoints {
		oldFields[i] = unreachableField(d.N())
		d.BFSInto(e, oldFields[i], queue)
	}
	if err := d.Apply(deltas); err != nil {
		return nil, err
	}

	// Exact dirty set: nodes whose distance to some endpoint changed.
	dirty := make([]graph.NodeID, 0)
	if len(endpoints) > 0 {
		newField := make([]int32, d.N())
		isDirty := make([]bool, d.N())
		for i, e := range endpoints {
			for j := range newField {
				newField[j] = graph.Unreachable
			}
			d.BFSInto(e, newField, queue)
			for w, nd := range newField {
				if nd != oldFields[i][w] {
					isDirty[w] = true
				}
			}
		}
		for w, dirt := range isDirty {
			if dirt {
				dirty = append(dirty, graph.NodeID(w))
			}
		}
	}

	// Copy-on-write state: patches are immutable per entry, so a shallow
	// slice copy suffices; patchIdx is cloned.
	st := &dynTwoHopState{
		base:     old.base,
		n:        old.n,
		gen:      d.Gen(),
		patchIdx: append([]int32(nil), old.patchIdx...),
		patches:  append([]dynPatch(nil), old.patches...),
	}
	st.stats = old.stats
	st.stats.Gen = st.gen
	st.stats.DirtyTotal += int64(len(dirty))

	debt := mergeSorted(old.debt, dirty)

	// Budgeted repair in ascending node id: one exact BFS field per node,
	// stamped with the new generation.
	repaired := 0
	remaining := debt[:0]
	for _, w := range debt {
		if budget >= 0 && repaired >= budget {
			remaining = append(remaining, w)
			continue
		}
		field := unreachableField(d.N())
		d.BFSInto(w, field, queue)
		p := dynPatch{node: w, gen: st.gen, field: field}
		if i := st.patchIdx[w]; i >= 0 {
			st.patches[i] = p
		} else {
			st.patchIdx[w] = int32(len(st.patches))
			st.patches = append(st.patches, p)
		}
		repaired++
	}
	st.debt = append([]graph.NodeID(nil), remaining...)
	st.stats.PatchedTotal += int64(repaired)
	st.stats.Debt = len(st.debt)
	st.stats.Patched = len(st.patches)
	t.state.Store(st)
	return dirty, nil
}

// unreachableField returns an n-entry distance field filled with
// graph.Unreachable, ready for BFSInto.
func unreachableField(n int) []int32 {
	field := make([]int32, n)
	for i := range field {
		field[i] = graph.Unreachable
	}
	return field
}

// mergeSorted returns the union of two ascending, duplicate-free node
// lists, ascending, in a fresh slice.
func mergeSorted(a, b []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
