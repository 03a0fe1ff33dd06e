package dist

import (
	"fmt"
	"slices"
	"sync"
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
// The repair of one batch is split in two.  ApplyDirty applies the batch to
// the graph and computes D exactly (BFS from every endpoint on the old and
// the new graph, diffed).  Repair then adds D to the oracle's debt set, and
// a repair budget patches debt nodes in ascending node id: a patch is one
// exact BFS field from the node on the graph after the batch, stamped with
// its generation.  The field is computed on the patch's first query, so a
// patch that a later batch or a relabel replaces before anyone asks costs
// no BFS.  D and the graphs depend only on the batches, so one
// dirty-set pass can serve any number of oracles replaying the same batches
// under different budgets.  A query prefers the fresher endpoint's patch,
// falling back to the base labels when neither endpoint was ever dirtied.
// When the debt set is empty the oracle is query-equivalent to a full
// rebuild (the disttest conformance suite pins this); nodes still in debt
// serve their last-known answers — that bounded staleness, as a function
// of the budget, is exactly what experiment E13 measures.  Relabel (the
// compaction path) installs labels built from scratch and clears all
// patches and debt; the labels are immutable, so oracles replaying one
// stream share them.
//
// # Concurrency
//
// All reads go through one atomic pointer to an immutable state; Repair
// and Relabel construct a fresh state and swap it in.  A patch's field is
// computed once, under its own sync.Once, by the first query that needs
// it.  Dist is therefore safe for any number of concurrent readers against
// one writer (the churn pipeline), which the race-detector soak exercises.
// Writers are not safe against each other.
type DynTwoHop struct {
	state atomic.Pointer[dynTwoHopState]
}

type dynTwoHopState struct {
	base *TwoHop
	n    int
	gen  uint64 // graph generation this state answers for

	// patchIdx[u] indexes patches, -1 when u has no patch.  Dense so the
	// query hot path pays an array read, not a map lookup.
	patchIdx []int32
	patches  []*dynPatch

	// debt holds dirty nodes not yet re-patched at their latest dirtying,
	// sorted ascending.  Their answers (old patch or base labels) may be
	// stale until a later batch's budget — or a rebuild — drains them.
	debt []graph.NodeID

	stats DynTwoHopStats
}

// dynPatch is one repaired node: its exact BFS field on g, the graph at
// generation gen.  g is immutable, so the field is the same whenever it is
// computed; once computed, the patch lets go of g.
type dynPatch struct {
	node  graph.NodeID
	gen   uint64
	g     *graph.Graph
	once  sync.Once
	field []int32
}

// dist returns the distance from the patched node to v, computing the
// patch's field on first use.
func (p *dynPatch) dist(v graph.NodeID) int32 {
	p.once.Do(func() {
		p.field = unreachableField(p.g.N())
		p.g.BFSInto(p.node, p.field, nil)
		p.g = nil
	})
	return p.field[v]
}

// DynTwoHopStats summarises the repair history of a DynTwoHop.
type DynTwoHopStats struct {
	// Gen is the graph generation the oracle currently answers for.
	Gen uint64
	// Debt is the number of dirty nodes still serving stale answers.
	Debt int
	// Patched is the number of nodes currently carrying a patch.
	Patched int
	// DirtyTotal counts dirty-set members summed over all batches;
	// PatchedTotal counts patches made (repairs, whether or not a query
	// ever computed their field); Rebuilds counts label installs (the
	// initial labels and every Relabel).
	DirtyTotal   int64
	PatchedTotal int64
	Rebuilds     int64
}

// NewDynTwoHop returns an oracle at graph generation gen that answers from
// labels, which must label the graph at that generation.  The labels are
// only read, so oracles may share them.
func NewDynTwoHop(labels *TwoHop, gen uint64) *DynTwoHop {
	t := &DynTwoHop{}
	t.install(labels, gen)
	return t
}

// install puts a fresh state over labels at gen, clearing every patch and
// all debt and counting a rebuild.
func (t *DynTwoHop) install(labels *TwoHop, gen uint64) {
	idx := make([]int32, labels.N())
	for i := range idx {
		idx[i] = -1
	}
	var prev DynTwoHopStats
	if s := t.state.Load(); s != nil {
		prev = s.stats
	}
	st := &dynTwoHopState{base: labels, n: labels.N(), gen: gen, patchIdx: idx}
	st.stats = prev
	st.stats.Gen = gen
	st.stats.Debt = 0
	st.stats.Patched = 0
	st.stats.Rebuilds++
	t.state.Store(st)
}

// Relabel installs labels built from scratch for the graph at generation
// gen, clearing every patch and all debt — the compaction path of the
// churn pipeline.
func (t *DynTwoHop) Relabel(labels *TwoHop, gen uint64) error {
	if have := t.N(); labels.N() != have {
		return fmt.Errorf("dist: relabel with labels over %d nodes, oracle covers %d", labels.N(), have)
	}
	t.install(labels, gen)
	return nil
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
		return fmt.Errorf("dist: stale 2-hop oracle: oracle at graph generation %d, graph at %d (every applied batch must be repaired once, in order)", have, gen)
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
			return s.patches[iv].dist(u)
		}
		return s.patches[iu].dist(v)
	}
	if iv >= 0 {
		return s.patches[iv].dist(u)
	}
	return s.base.Dist(u, v)
}

// ApplyDirty applies one delta batch to d and returns its exact dirty set
// D (the old/new BFS diff from every delta endpoint; see DynTwoHop), sorted
// ascending.  An invalid batch leaves d unchanged and returns the error.
func ApplyDirty(d *graph.DynGraph, deltas []graph.Delta) ([]graph.NodeID, error) {
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
	return dirty, nil
}

// Repair advances the oracle over one applied batch: g is the graph after
// the batch, at generation gen, and dirty is the batch's dirty set as
// ApplyDirty returned it (sorted ascending).  Repair merges dirty into the
// debt set, patches up to budget debt nodes with BFS fields on g (budget
// < 0 means unlimited, 0 means track debt only; g must not change), and
// swaps in a state at gen.
//
// gen must be exactly one past the oracle's generation; otherwise Repair
// fails loud without touching the oracle.
func (t *DynTwoHop) Repair(g *graph.Graph, gen uint64, dirty []graph.NodeID, budget int) error {
	old := t.state.Load()
	if old.n != g.N() {
		return fmt.Errorf("dist: oracle covers %d nodes, graph has %d", old.n, g.N())
	}
	if gen != old.gen+1 {
		return fmt.Errorf("dist: 2-hop oracle at graph generation %d cannot repair generation %d (every applied batch must be repaired once, in order)", old.gen, gen)
	}

	// Copy-on-write state: a patch never changes once made (its field is
	// computed once), so a shallow slice copy suffices; patchIdx is cloned.
	st := &dynTwoHopState{
		base:     old.base,
		n:        old.n,
		gen:      gen,
		patchIdx: append([]int32(nil), old.patchIdx...),
		patches:  append([]*dynPatch(nil), old.patches...),
	}
	st.stats = old.stats
	st.stats.Gen = st.gen
	st.stats.DirtyTotal += int64(len(dirty))

	debt := mergeSorted(old.debt, dirty)

	// Budgeted repair in ascending node id: one patch per node, stamped
	// with the new generation.
	repaired := 0
	remaining := debt[:0]
	for _, w := range debt {
		if budget >= 0 && repaired >= budget {
			remaining = append(remaining, w)
			continue
		}
		p := &dynPatch{node: w, gen: st.gen, g: g}
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
	return nil
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
