package dist_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/dist/disttest"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// repairTestGraph builds a spanning path plus extra random edges — small
// enough for exhaustive conformance, cyclic enough that deletions both do
// and do not disconnect.
func repairTestGraph(n, extra int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	for i := 0; i < extra; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// churnStep builds one valid random delta batch against the current state
// of d: half deletions of existing edges, half insertions of non-edges.
func churnStep(d *graph.DynGraph, rng *xrand.RNG, k int) []graph.Delta {
	edges := d.Edges()
	deltas := make([]graph.Delta, 0, 2*k)
	pending := make(map[[2]int32]bool)
	for i := 0; i < k && len(edges) > 0; i++ {
		j := rng.Intn(len(edges))
		e := edges[j]
		edges[j] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
		deltas = append(deltas, graph.Delta{U: e.U, V: e.V, Op: graph.DeltaDelete})
		pending[[2]int32{e.U, e.V}] = true
	}
	n := d.N()
	for i := 0; i < k; i++ {
		for attempt := 0; attempt < 64; attempt++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if d.HasEdge(u, v) || pending[[2]int32{u, v}] {
				continue
			}
			pending[[2]int32{u, v}] = true
			deltas = append(deltas, graph.Delta{U: u, V: v, Op: graph.DeltaInsert})
			break
		}
	}
	return deltas
}

// newDynOracle labels the current graph of d from scratch and returns an
// oracle over the labels at d's generation.
func newDynOracle(d *graph.DynGraph, workers int) *dist.DynTwoHop {
	return dist.NewDynTwoHop(dist.NewTwoHopWith(d.Compact(), dist.TwoHopOptions{Workers: workers}), d.Gen())
}

// applyBatch is the single-oracle pipeline step: apply one batch to d,
// computing its dirty set, and repair the oracle over it.
func applyBatch(o *dist.DynTwoHop, d *graph.DynGraph, deltas []graph.Delta, budget int) ([]graph.NodeID, error) {
	dirty, err := dist.ApplyDirty(d, deltas)
	if err != nil {
		return nil, err
	}
	return dirty, o.Repair(d.Compact(), d.Gen(), dirty, budget)
}

// relabel is the compaction step: rebase d and relabel the oracle over the
// fresh CSR.
func relabel(o *dist.DynTwoHop, d *graph.DynGraph) error {
	return o.Relabel(dist.NewTwoHop(d.Rebase()), d.Gen())
}

// TestDynTwoHopRepairMatchesRebuild pins the query-equivalence contract at
// every worker count: with an unlimited budget, the incrementally repaired
// oracle must answer exactly like a full rebuild — and like BFS ground
// truth — after every delta batch, including batches that disconnect and
// reconnect the graph.
func TestDynTwoHopRepairMatchesRebuild(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		base := repairTestGraph(120, 40, 11)
		d := graph.NewDynGraph(base)
		oracle := newDynOracle(d, workers)
		rng := xrand.New(99)
		for batch := 0; batch < 6; batch++ {
			deltas := churnStep(d, rng, 5)
			if _, err := applyBatch(oracle, d, deltas, -1); err != nil {
				t.Fatalf("workers=%d batch %d: %v", workers, batch, err)
			}
			if oracle.Debt() != 0 {
				t.Fatalf("workers=%d batch %d: debt %d under unlimited budget", workers, batch, oracle.Debt())
			}
			compacted := d.Compact()
			// Exhaustive conformance against BFS ground truth on the
			// current graph: repaired == rebuilt == exact.
			disttest.Exact(t, compacted, oracle)
			rebuilt := dist.NewTwoHopWith(compacted, dist.TwoHopOptions{Workers: workers})
			for probe := 0; probe < 200; probe++ {
				u := int32(rng.Intn(d.N()))
				v := int32(rng.Intn(d.N()))
				if got, want := oracle.Dist(u, v), rebuilt.Dist(u, v); got != want {
					t.Fatalf("workers=%d batch %d: Dist(%d,%d) = %d, rebuild says %d", workers, batch, u, v, got, want)
				}
			}
		}
	}
}

// TestDynTwoHopBudgetedDebtDrains exercises the budget semantics: a zero
// budget only tracks debt (answers may be stale), small budgets drain it a
// few nodes per batch in deterministic order, and once the debt set is
// empty the oracle is exact again — without ever rebuilding.
func TestDynTwoHopBudgetedDebtDrains(t *testing.T) {
	base := repairTestGraph(100, 30, 5)
	d := graph.NewDynGraph(base)
	oracle := newDynOracle(d, 0)
	rng := xrand.New(3)
	dirty, err := applyBatch(oracle, d, churnStep(d, rng, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("churn produced no dirty nodes")
	}
	if oracle.Debt() != len(dirty) {
		t.Fatalf("budget 0: debt %d, want the full dirty set %d", oracle.Debt(), len(dirty))
	}
	// Empty batches with a small budget are pure repair steps; the debt
	// must shrink by exactly the budget each time and reach zero.
	for oracle.Debt() > 0 {
		before := oracle.Debt()
		if _, err := applyBatch(oracle, d, nil, 4); err != nil {
			t.Fatal(err)
		}
		want := before - 4
		if want < 0 {
			want = 0
		}
		if oracle.Debt() != want {
			t.Fatalf("debt %d after repair step, want %d", oracle.Debt(), want)
		}
	}
	disttest.Exact(t, d.Compact(), oracle)
	st := oracle.Stats()
	if st.PatchedTotal != int64(len(dirty)) || st.DirtyTotal != int64(len(dirty)) {
		t.Fatalf("stats inconsistent: %+v vs %d dirty", st, len(dirty))
	}
}

// TestDynTwoHopGenerationMismatch is the regression pin for the loud
// generation check: a graph mutated behind the oracle's back must be
// rejected by Repair and CheckGen, never silently served.
func TestDynTwoHopGenerationMismatch(t *testing.T) {
	base := repairTestGraph(50, 10, 1)
	d := graph.NewDynGraph(base)
	oracle := newDynOracle(d, 0)
	// Mutate the graph without telling the oracle.
	if err := d.Apply([]graph.Delta{{U: 0, V: 49, Op: graph.DeltaInsert}}); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckGen(d.Gen()); err == nil {
		t.Fatal("CheckGen accepted a stale oracle")
	} else if !strings.Contains(err.Error(), "stale 2-hop oracle") {
		t.Fatalf("unexpected error: %v", err)
	}
	// One more batch puts the graph two generations ahead: no dirty set
	// can bring the oracle there.
	if _, err := applyBatch(oracle, d, nil, -1); err == nil {
		t.Fatal("Repair accepted a graph the oracle has not seen")
	} else if !strings.Contains(err.Error(), "cannot repair generation 2") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Relabelling resynchronises.
	if err := relabel(oracle, d); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckGen(d.Gen()); err != nil {
		t.Fatal(err)
	}
	disttest.Exact(t, d.Compact(), oracle)
	if oracle.Stats().Rebuilds != 2 {
		t.Fatalf("rebuilds = %d, want 2 (initial + explicit)", oracle.Stats().Rebuilds)
	}
}

// TestDynTwoHopConcurrentFirstQueries: a patch's field is computed by the
// first query that needs it.  Many goroutines querying fresh patches at
// once must all read BFS distances (the CI race job runs this under
// -short).
func TestDynTwoHopConcurrentFirstQueries(t *testing.T) {
	base := repairTestGraph(150, 60, 8)
	d := graph.NewDynGraph(base)
	oracle := newDynOracle(d, 0)
	rng := xrand.New(5)
	for batch := 0; batch < 3; batch++ {
		if _, err := applyBatch(oracle, d, churnStep(d, rng, 4), -1); err != nil {
			t.Fatal(err)
		}
	}
	if oracle.Stats().Patched == 0 {
		t.Fatal("churn patched nothing")
	}
	g := d.Compact()
	n := g.N()
	truth := make([][]int32, n)
	for u := range truth {
		truth[u] = g.BFS(graph.NodeID(u))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				u := graph.NodeID((i + w*n/8) % n)
				for v := graph.NodeID(0); int(v) < n; v++ {
					if got := oracle.Dist(u, v); got != truth[u][v] {
						t.Errorf("Dist(%d,%d) = %d, BFS says %d", u, v, got, truth[u][v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFieldCacheGeneration pins the stale-field guard: a generation-stamped
// cache serves FieldAt only at its own generation and fails loud otherwise.
func TestFieldCacheGeneration(t *testing.T) {
	g := repairTestGraph(40, 5, 2)
	c := dist.NewFieldCacheAt(g, 8, 7)
	if c.Generation() != 7 {
		t.Fatalf("generation = %d", c.Generation())
	}
	if _, err := c.FieldAt(0, 7); err != nil {
		t.Fatalf("matching generation rejected: %v", err)
	}
	if _, err := c.FieldAt(0, 8); err == nil {
		t.Fatal("stale generation served")
	} else if !strings.Contains(err.Error(), "stale field cache") {
		t.Fatalf("unexpected error: %v", err)
	}
	if dist.NewFieldCache(g, 8).Generation() != 0 {
		t.Fatal("plain caches must sit at generation 0")
	}
}

// TestDynTwoHopApplyQuerySoak is the concurrent apply/query soak the CI
// race job runs explicitly: one writer applies churn batches (state swaps
// via the atomic pointer) while readers hammer Dist throughout.  Readers
// assert invariants that hold in every state — symmetry on a stable
// snapshot is not one of them (a swap may interleave), but range sanity and
// self-distance are.
func TestDynTwoHopApplyQuerySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak; run explicitly (the CI race job does)")
	}
	base := repairTestGraph(200, 80, 21)
	d := graph.NewDynGraph(base)
	oracle := newDynOracle(d, 0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	n := int32(d.N())
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for !stop.Load() {
				u := int32(rng.Intn(int(n)))
				v := int32(rng.Intn(int(n)))
				dd := oracle.Dist(u, v)
				if dd < graph.Unreachable || dd >= n {
					t.Errorf("Dist(%d,%d) = %d out of range", u, v, dd)
					return
				}
				if oracle.Dist(u, u) != 0 {
					t.Errorf("Dist(%d,%d) != 0", u, u)
					return
				}
			}
		}(uint64(r + 1))
	}
	rng := xrand.New(77)
	for batch := 0; batch < 40; batch++ {
		budget := batch % 3 // exercise debt-carrying states too
		if _, err := applyBatch(oracle, d, churnStep(d, rng, 3), budget); err != nil {
			t.Fatal(err)
		}
		if batch%16 == 15 {
			if err := relabel(oracle, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	// Drain the debt and finish exact.
	for oracle.Debt() > 0 {
		if _, err := applyBatch(oracle, d, nil, 16); err != nil {
			t.Fatal(err)
		}
	}
	disttest.Exact(t, d.Compact(), oracle)
}
