// Package churn drives dynamic-graph experiments: it turns a static base
// graph into a deterministic stream of edge delta batches (deletions paired
// with fresh insertions at a configured rate), replays them through the
// incremental 2-hop repair oracle (dist.DynTwoHop) under a repair budget,
// resamples the dirtied nodes' augmentation contacts, and hands the
// resulting final graph, oracle and frozen contact tables to the scenario
// engine.
//
// Determinism contract: the whole pipeline is a pure function of
// (base graph, seed, Spec).  The delta stream depends only on the seed and
// StreamKey — NOT on the repair budget — and so does everything computed
// from it: the dirty set of every batch, the 2-hop labels at generation 0
// and after each compaction, the final graph, and the frozen contact
// tables.  NewStream computes that budget-independent half once; Replay
// then runs one budget over it, patching up to the budget from the recorded
// dirty sets on the recorded graphs, over the shared labels.  Two
// replays differing only in budget therefore churn identical edges and
// dirty identical nodes; only the repair quality (oracle debt) differs.
// That separation is what lets experiment E13 attribute routing
// degradation to the budget alone, and what lets it run each stream once
// for all its budgets.
package churn

import (
	"fmt"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// Spec configures one churn pipeline.
type Spec struct {
	// Rate is the fraction of the current edge set deleted (and replaced by
	// the same number of fresh random edges) per batch.  Each batch deletes
	// at least one edge, so tiny graphs still churn.
	Rate float64
	// Batches is the number of delta batches applied.
	Batches int
	// RepairBudget caps how many dirty nodes the oracle re-labels per batch:
	// < 0 means unlimited (the oracle stays exact), 0 means track debt only
	// (answers go stale until a compaction).
	RepairBudget int
	// CompactEvery > 0 relabels the oracle from scratch (fresh 2-hop labels
	// of the current graph, clearing patches and debt) after every
	// CompactEvery batches — except after the final batch, so measurements
	// see the budget's effect, not a rebuild's.
	CompactEvery int
}

// Key identifies the full spec, including the repair budget.  It is part of
// the scenario engine's graph cache identity: cells with different budgets
// measure different oracles.
func (s Spec) Key() string {
	return fmt.Sprintf("%s-k%d", s.StreamKey(), s.RepairBudget)
}

// StreamKey identifies the delta stream alone — rate, batch count and
// compaction cadence, but NOT the repair budget.  Seeding the stream from
// StreamKey makes the churned edges and dirty sets identical across budget
// cells, which then share one Stream.
func (s Spec) StreamKey() string {
	return fmt.Sprintf("r%g-b%d-c%d", s.Rate, s.Batches, s.CompactEvery)
}

// Stream is the budget-independent half of a churn pipeline.  It is
// immutable once built, so any number of budget replays may share it.
type Stream struct {
	// Base is the graph the stream started from; Final is the CSR after
	// the last batch (the graph routing runs on), at generation Gen.
	Base  *graph.Graph
	Final *graph.Graph
	Gen   uint64
	// Seed is the stream seed the deltas were drawn with.
	Seed uint64
	// Graphs[b] is the CSR after batch b, at generation b+1; Dirty[b] is
	// batch b's sorted dirty set (dist.ApplyDirty).
	Graphs []*graph.Graph
	Dirty  [][]graph.NodeID
	// Labels holds the 2-hop labels of Base, then those of the graph at
	// each compaction, in stream order.
	Labels []*dist.TwoHop
	// Fields is a field cache over Final, stamped with Gen so stale reads
	// fail loud (dist.FieldCache.FieldAt).
	Fields *dist.FieldCache

	EdgesDeleted  int
	EdgesInserted int
	// Components and LargestComponent describe Final's connectivity — churn
	// can disconnect a graph, and the sim reports such pairs as unreachable
	// rather than erroring (see internal/graph/ops.go).
	Components       int
	LargestComponent int

	spec Spec
}

// Result is one budget's replay of a stream.
type Result struct {
	*Stream
	// Spec is the stream's spec with the replay's repair budget.
	Spec Spec
	// Oracle is the incrementally repaired distance oracle at generation
	// Gen.  Its debt reflects the budget.
	Oracle *dist.DynTwoHop

	// Repair tallies.
	DirtyTotal    int64
	PatchedTotal  int64
	DebtRemaining int
	Rebuilds      int64
}

// NewStream runs the budget-independent half of the pipeline on base:
// Batches delta batches at the spec's rate, the dirty set and the CSR after
// each, and the 2-hop labels at the start and after every CompactEvery
// batches — except after the final batch, so measurements see the budget's
// effect, not a rebuild's.  The spec's RepairBudget is ignored.  All
// randomness comes from seed; equal (base, seed, spec) produce identical
// streams at every worker count (workers only parallelises the label
// builds, which are worker-count invariant by dist.TwoHop's contract).
func NewStream(base *graph.Graph, seed uint64, spec Spec, workers int) (*Stream, error) {
	if spec.Batches <= 0 {
		return nil, fmt.Errorf("churn: spec needs at least one batch, got %d", spec.Batches)
	}
	if spec.Rate < 0 || spec.Rate > 1 {
		return nil, fmt.Errorf("churn: rate %g out of [0,1]", spec.Rate)
	}
	// Without a MaxAvgLabel budget the label build never aborts.
	opts := dist.TwoHopOptions{Workers: workers}
	d := graph.NewDynGraph(base)
	s := &Stream{Base: base, Seed: seed, spec: spec}
	s.Labels = append(s.Labels, dist.NewTwoHopWith(base, opts))
	rng := xrand.New(seed)
	for b := 0; b < spec.Batches; b++ {
		deltas := nextBatch(d, rng, spec.Rate)
		for _, dl := range deltas {
			if dl.Op == graph.DeltaDelete {
				s.EdgesDeleted++
			} else {
				s.EdgesInserted++
			}
		}
		dirty, err := dist.ApplyDirty(d, deltas)
		if err != nil {
			return nil, fmt.Errorf("churn: batch %d: %w", b, err)
		}
		s.Dirty = append(s.Dirty, dirty)
		// Every replay patches on this graph, so it is compacted once
		// here; the next batch's dirty-set BFS then reads a plain CSR too.
		g := d.Rebase()
		s.Graphs = append(s.Graphs, g)
		if spec.compactsAfter(b) {
			s.Labels = append(s.Labels, dist.NewTwoHopWith(g, opts))
		}
	}
	s.Gen = d.Gen()
	s.Final = d.Base()
	s.Fields = dist.NewFieldCacheAt(s.Final, 64, s.Gen)
	for _, comp := range s.Final.Components() {
		s.Components++
		if len(comp) > s.LargestComponent {
			s.LargestComponent = len(comp)
		}
	}
	return s, nil
}

// compactsAfter reports whether the pipeline relabels after batch b.
func (s Spec) compactsAfter(b int) bool {
	return s.CompactEvery > 0 && (b+1)%s.CompactEvery == 0 && b+1 < s.Batches
}

// Replay runs one repair budget over the stream: batch by batch it repairs
// the oracle from the recorded dirty set with the budget (< 0 means
// unlimited, 0 means track debt only), patching on the recorded graph, and
// relabels it from the stream's labels at every compaction.  Only the
// budgeted patch BFS runs per replay.
func (s *Stream) Replay(budget int) (*Result, error) {
	spec := s.spec
	spec.RepairBudget = budget
	oracle := dist.NewDynTwoHop(s.Labels[0], 0)
	compactions := 0
	for b, g := range s.Graphs {
		gen := uint64(b + 1)
		if err := oracle.Repair(g, gen, s.Dirty[b], budget); err != nil {
			return nil, fmt.Errorf("churn: batch %d: %w", b, err)
		}
		if spec.compactsAfter(b) {
			compactions++
			if err := oracle.Relabel(s.Labels[compactions], gen); err != nil {
				return nil, fmt.Errorf("churn: relabel after batch %d: %w", b, err)
			}
		}
	}
	if err := oracle.CheckGen(s.Gen); err != nil {
		return nil, err
	}
	st := oracle.Stats()
	return &Result{
		Stream:        s,
		Spec:          spec,
		Oracle:        oracle,
		DirtyTotal:    st.DirtyTotal,
		PatchedTotal:  st.PatchedTotal,
		DebtRemaining: oracle.Debt(),
		Rebuilds:      st.Rebuilds,
	}, nil
}

// nextBatch draws one delta batch from the stream rng: k deletions of
// current edges (k = max(1, rate·m)) and up to k insertions of fresh
// non-edges.  Insertion candidates are rejection-sampled against the
// pre-batch edge set plus the batch itself; an insertion that finds no free
// slot in 128 attempts is dropped (dense graphs), which only shrinks the
// batch deterministically.
func nextBatch(d *graph.DynGraph, rng *xrand.RNG, rate float64) []graph.Delta {
	edges := d.Edges()
	k := int(rate * float64(len(edges)))
	if k < 1 {
		k = 1
	}
	if k > len(edges) {
		k = len(edges)
	}
	deltas := make([]graph.Delta, 0, 2*k)
	pending := make(map[[2]graph.NodeID]bool, 2*k)
	for i := 0; i < k && len(edges) > 0; i++ {
		j := rng.Intn(len(edges))
		e := edges[j]
		edges[j] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
		deltas = append(deltas, graph.Delta{U: e.U, V: e.V, Op: graph.DeltaDelete})
		pending[[2]graph.NodeID{e.U, e.V}] = true
	}
	n := d.N()
	for i := 0; i < k; i++ {
		for attempt := 0; attempt < 128; attempt++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := [2]graph.NodeID{u, v}
			if pending[key] || d.HasEdge(u, v) {
				continue
			}
			pending[key] = true
			deltas = append(deltas, graph.Delta{U: u, V: v, Op: graph.DeltaInsert})
			break
		}
	}
	return deltas
}

// FrozenTable freezes one full contact table of scheme s for the churned
// graph: a base draw over the pre-churn graph (seeded by the stream seed
// and the scheme name), then — batch by batch, in stream order — a local
// redraw of exactly the nodes that batch dirtied (augment.ResampleDirty).
// Clean nodes keep their original frozen contact throughout, mirroring how
// a deployed overlay would only re-establish links whose underlying
// distances actually changed.  The table depends on the stream alone, so
// every budget replay of the stream routes over the same one.
func FrozenTable(st *Stream, s augment.Scheme) (*augment.Static, error) {
	inst, err := s.Prepare(st.Base)
	if err != nil {
		return nil, err
	}
	tabSeed := st.Seed ^ hash64(s.Name())
	contacts := augment.SampleAll(inst, st.Base.N(), xrand.New(tabSeed))
	for b, dirty := range st.Dirty {
		augment.ResampleDirty(inst, contacts, dirty, tabSeed, uint64(b+1))
	}
	return augment.NewStatic(s.Name(), contacts)
}

// hash64 is FNV-1a, matching internal/scenario's string hash (churn cannot
// import scenario — scenario imports churn).
func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
