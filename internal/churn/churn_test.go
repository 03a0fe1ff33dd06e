package churn_test

import (
	"testing"

	"navaug/internal/augment"
	"navaug/internal/churn"
	"navaug/internal/dist"
	"navaug/internal/dist/disttest"
	"navaug/internal/graph"
	"navaug/internal/route"
	"navaug/internal/xrand"
)

func churnTestGraph(n, extra int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	for i := 0; i < extra; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.SetName("churn-test").Build()
}

func sameCSR(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	aOff, aAdj := a.RawCSR()
	bOff, bAdj := b.RawCSR()
	if len(aOff) != len(bOff) || len(aAdj) != len(bAdj) {
		t.Fatal("CSR shape mismatch")
	}
	for i := range aOff {
		if aOff[i] != bOff[i] {
			t.Fatalf("offsets[%d]: %d vs %d", i, aOff[i], bOff[i])
		}
	}
	for i := range aAdj {
		if aAdj[i] != bAdj[i] {
			t.Fatalf("adj[%d]: %d vs %d", i, aAdj[i], bAdj[i])
		}
	}
}

// run is the whole pipeline for one spec: its stream, replayed at the
// spec's budget.
func run(base *graph.Graph, seed uint64, spec churn.Spec, workers int) (*churn.Result, error) {
	st, err := churn.NewStream(base, seed, spec, workers)
	if err != nil {
		return nil, err
	}
	return st.Replay(spec.RepairBudget)
}

// TestRunDeterminism pins the stream contract: equal (base, seed, spec)
// yield identical final graphs, dirty sets, and tallies — at every worker
// count, and across repair budgets for everything except repair quality.
func TestRunDeterminism(t *testing.T) {
	base := churnTestGraph(150, 60, 9)
	spec := churn.Spec{Rate: 0.02, Batches: 5, RepairBudget: -1, CompactEvery: 3}

	a, err := run(base, 1234, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b, err := run(base, 1234, spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, a.Final, b.Final)
		if len(a.Dirty) != len(b.Dirty) {
			t.Fatal("dirty batch count differs")
		}
		for i := range a.Dirty {
			if len(a.Dirty[i]) != len(b.Dirty[i]) {
				t.Fatalf("batch %d dirty size differs", i)
			}
			for j := range a.Dirty[i] {
				if a.Dirty[i][j] != b.Dirty[i][j] {
					t.Fatalf("batch %d dirty[%d] differs", i, j)
				}
			}
		}
		if a.EdgesDeleted != b.EdgesDeleted || a.EdgesInserted != b.EdgesInserted || a.Gen != b.Gen {
			t.Fatalf("tallies differ: %+v vs %+v", a, b)
		}
	}

	// A different budget must churn the same edges and dirty the same nodes
	// — only the repair state may differ.  This is the StreamKey separation.
	c, err := run(base, 1234, churn.Spec{Rate: 0.02, Batches: 5, RepairBudget: 0, CompactEvery: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, a.Final, c.Final)
	for i := range a.Dirty {
		if len(a.Dirty[i]) != len(c.Dirty[i]) {
			t.Fatalf("budget changed batch %d dirty set", i)
		}
	}
	if a.DebtRemaining != 0 {
		t.Fatal("unlimited budget left debt")
	}
	if spec.Key() == c.Spec.Key() {
		t.Fatal("budget missing from Spec.Key")
	}
	if spec.StreamKey() != c.Spec.StreamKey() {
		t.Fatal("budget leaked into StreamKey")
	}
}

// TestRunUnlimitedBudgetExact: with an unlimited budget the repaired oracle
// must be exact on the final graph (the disttest conformance suite).
func TestRunUnlimitedBudgetExact(t *testing.T) {
	base := churnTestGraph(120, 50, 3)
	res, err := run(base, 77, churn.Spec{Rate: 0.03, Batches: 4, RepairBudget: -1, CompactEvery: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	disttest.Exact(t, res.Final, res.Oracle)
	if res.Rebuilds < 2 {
		t.Fatalf("compaction cadence did not rebuild (rebuilds=%d)", res.Rebuilds)
	}
}

// TestRunZeroBudgetTracksDebt: budget 0 repairs nothing between
// compactions, so debt equals the dirty nodes accumulated since the last
// rebuild.
func TestRunZeroBudgetTracksDebt(t *testing.T) {
	base := churnTestGraph(100, 40, 5)
	res, err := run(base, 42, churn.Spec{Rate: 0.05, Batches: 3, RepairBudget: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.DebtRemaining == 0 {
		t.Fatal("zero budget produced no debt")
	}
	if res.PatchedTotal != 0 {
		t.Fatalf("zero budget patched %d nodes", res.PatchedTotal)
	}
	if res.DirtyTotal == 0 {
		t.Fatal("churn dirtied nothing")
	}
}

// TestFrozenTableDeterminismAndLocality: the frozen contact table is a pure
// function of (result, scheme), and only ever-dirty nodes may differ from a
// plain pre-churn freeze.
func TestFrozenTableDeterminismAndLocality(t *testing.T) {
	base := churnTestGraph(130, 50, 11)
	spec := churn.Spec{Rate: 0.03, Batches: 4, RepairBudget: -1}
	res, err := run(base, 2024, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme := augment.NewUniformScheme()
	ta, err := churn.FrozenTable(res.Stream, scheme)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := churn.FrozenTable(res.Stream, scheme)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < ta.N(); u++ {
		if ta.Contact(u, nil) != tb.Contact(u, nil) {
			t.Fatalf("node %d: table differs across identical runs", u)
		}
	}

	// Clean nodes (never dirtied by any batch) keep the base draw.
	inst, err := scheme.Prepare(res.Base)
	if err != nil {
		t.Fatal(err)
	}
	baseTable := augment.SampleAll(inst, base.N(), xrand.New(res.Seed^churnHash(scheme.Name())))
	everDirty := make(map[graph.NodeID]bool)
	for _, batch := range res.Dirty {
		for _, u := range batch {
			everDirty[u] = true
		}
	}
	if len(everDirty) == 0 {
		t.Fatal("churn dirtied nothing")
	}
	for u := graph.NodeID(0); int(u) < ta.N(); u++ {
		if !everDirty[u] && ta.Contact(u, nil) != baseTable[u] {
			t.Fatalf("clean node %d was resampled", u)
		}
	}
}

// churnHash mirrors the package's FNV-1a so the test can reproduce the
// table seed.
func churnHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TestRouteTraceAgreement: steering greedy routing by the repaired oracle
// produces hop-for-hop the same route as steering by an exact BFS field on
// the final graph — the oracle is a drop-in distance source.
func TestRouteTraceAgreement(t *testing.T) {
	base := churnTestGraph(140, 60, 21)
	res, err := run(base, 555, churn.Spec{Rate: 0.02, Batches: 4, RepairBudget: -1, CompactEvery: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	table, err := churn.FrozenTable(res.Stream, augment.NewUniformScheme())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Final
	rng := xrand.New(9)
	pairs := 0
	for pairs < 25 {
		s := graph.NodeID(rng.Intn(g.N()))
		tgt := graph.NodeID(rng.Intn(g.N()))
		if s == tgt || res.Oracle.Dist(s, tgt) == graph.Unreachable {
			continue
		}
		pairs++
		field := dist.NewField(res.Fields.Field(tgt))
		opts := route.Options{Trace: true}
		ra, err := route.Greedy(g, table, s, tgt, res.Oracle, xrand.New(77), opts)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := route.Greedy(g, table, s, tgt, field, xrand.New(77), opts)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Steps != rb.Steps || ra.Reached != rb.Reached || len(ra.Path) != len(rb.Path) {
			t.Fatalf("pair (%d,%d): oracle route %+v vs field route %+v", s, tgt, ra, rb)
		}
		for i := range ra.Path {
			if ra.Path[i] != rb.Path[i] {
				t.Fatalf("pair (%d,%d): paths diverge at hop %d", s, tgt, i)
			}
		}
	}
}
