package graph

import (
	"fmt"
	"testing"

	"navaug/internal/xrand"
)

// randomTestGraph builds a connected-ish random graph: a spanning path plus
// extra random edges, deduplicated by the Builder.
func randomTestGraph(n, extra int, rng *xrand.RNG) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(NodeID(i-1), NodeID(i))
	}
	for i := 0; i < extra; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.SetName("rand").Build()
}

func TestTryAddEdgeErrors(t *testing.T) {
	b := NewBuilder(4)
	if err := b.TryAddEdge(0, 4); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.TryAddEdge(-1, 2); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := b.TryAddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.TryAddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if g := b.Build(); g.M() != 1 {
		t.Fatalf("expected 1 edge, got %d", g.M())
	}
}

func TestAddEdgeStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge did not panic on a self-loop")
		}
	}()
	NewBuilder(3).AddEdge(1, 1)
}

func TestDynGraphApplyValidation(t *testing.T) {
	base := fromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name   string
		deltas []Delta
	}{
		{"insert existing", []Delta{{U: 0, V: 1, Op: DeltaInsert}}},
		{"delete missing", []Delta{{U: 0, V: 3, Op: DeltaDelete}}},
		{"self-loop", []Delta{{U: 2, V: 2, Op: DeltaInsert}}},
		{"out of range", []Delta{{U: 0, V: 4, Op: DeltaInsert}}},
		{"negative", []Delta{{U: -1, V: 2, Op: DeltaDelete}}},
		{"double insert in batch", []Delta{{U: 0, V: 2, Op: DeltaInsert}, {U: 2, V: 0, Op: DeltaInsert}}},
		{"unknown op", []Delta{{U: 0, V: 2, Op: DeltaOp(9)}}},
		{"valid then invalid", []Delta{{U: 0, V: 2, Op: DeltaInsert}, {U: 1, V: 1, Op: DeltaInsert}}},
	}
	for _, tc := range cases {
		d := NewDynGraph(base)
		if err := d.Apply(tc.deltas); err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
		// A rejected batch must leave the graph and its generation untouched.
		if d.Gen() != 0 || !d.OverlayEmpty() || int(d.m) != base.M() {
			t.Fatalf("%s: rejected batch mutated the graph (gen=%d m=%d)", tc.name, d.Gen(), int(d.m))
		}
	}

	// Delete followed by re-insert of the same edge within one batch is legal.
	d := NewDynGraph(base)
	err := d.Apply([]Delta{{U: 0, V: 1, Op: DeltaDelete}, {U: 1, V: 0, Op: DeltaInsert}})
	if err != nil {
		t.Fatalf("delete+reinsert batch rejected: %v", err)
	}
	if !d.HasEdge(0, 1) || int(d.m) != base.M() || d.Gen() != 1 {
		t.Fatalf("delete+reinsert batch did not round-trip (m=%d gen=%d)", int(d.m), d.Gen())
	}
}

// TestDynGraphOverlayVsCompacted is the overlay/compaction equivalence
// property test: after every random delta batch, the DynGraph view and an
// independently maintained edge set must agree on HasEdge/Degree/M, the
// compacted CSR must be byte-identical to a Builder-built graph over the
// same edges, and BFS must agree between the overlay and the compacted CSR.
func TestDynGraphOverlayVsCompacted(t *testing.T) {
	rng := xrand.New(42)
	base := randomTestGraph(96, 120, rng)
	d := NewDynGraph(base)

	// Reference edge set, maintained independently of the overlay.
	ref := make(map[[2]NodeID]bool)
	for _, e := range base.Edges() {
		ref[[2]NodeID{e.U, e.V}] = true
	}
	key := func(u, v NodeID) [2]NodeID {
		if u > v {
			u, v = v, u
		}
		return [2]NodeID{u, v}
	}

	n := base.N()
	for batch := 1; batch <= 12; batch++ {
		var deltas []Delta
		pending := make(map[[2]NodeID]bool)
		for len(deltas) < 9 {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			k := key(u, v)
			if pending[k] {
				continue
			}
			pending[k] = true
			exists := ref[k]
			if exists {
				deltas = append(deltas, Delta{U: u, V: v, Op: DeltaDelete})
				delete(ref, k)
			} else {
				deltas = append(deltas, Delta{U: u, V: v, Op: DeltaInsert})
				ref[k] = true
			}
		}
		if err := d.Apply(deltas); err != nil {
			t.Fatalf("batch %d rejected: %v", batch, err)
		}
		if d.Gen() != uint64(batch) {
			t.Fatalf("batch %d: gen=%d", batch, d.Gen())
		}
		if int(d.m) != len(ref) {
			t.Fatalf("batch %d: M=%d want %d", batch, int(d.m), len(ref))
		}

		// Compacted CSR must match a Builder-built graph byte for byte.
		edges := make([]Edge, 0, len(ref))
		for k := range ref {
			edges = append(edges, Edge{U: k[0], V: k[1]})
		}
		want := fromEdges(n, edges)
		got := d.Compact()
		wantOff, wantAdj := want.RawCSR()
		gotOff, gotAdj := got.RawCSR()
		if len(wantOff) != len(gotOff) || len(wantAdj) != len(gotAdj) {
			t.Fatalf("batch %d: CSR shape mismatch", batch)
		}
		for i := range wantOff {
			if wantOff[i] != gotOff[i] {
				t.Fatalf("batch %d: offsets[%d] = %d want %d", batch, i, gotOff[i], wantOff[i])
			}
		}
		for i := range wantAdj {
			if wantAdj[i] != gotAdj[i] {
				t.Fatalf("batch %d: adj[%d] = %d want %d", batch, i, gotAdj[i], wantAdj[i])
			}
		}

		// Point queries agree with the reference set.
		for probe := 0; probe < 64; probe++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if d.HasEdge(u, v) != ref[key(u, v)] {
				t.Fatalf("batch %d: HasEdge(%d,%d) = %v", batch, u, v, d.HasEdge(u, v))
			}
		}
		for u := 0; u < n; u++ {
			if d.Degree(NodeID(u)) != want.Degree(NodeID(u)) {
				t.Fatalf("batch %d: Degree(%d) = %d want %d", batch, u, d.Degree(NodeID(u)), want.Degree(NodeID(u)))
			}
		}

		// BFS through the overlay equals BFS on the compacted CSR.
		for _, src := range []NodeID{0, NodeID(n / 2), NodeID(n - 1)} {
			dd := make([]int32, n)
			for i := range dd {
				dd[i] = Unreachable
			}
			d.BFSInto(src, dd, nil)
			gd := got.BFS(src)
			for i := range dd {
				if dd[i] != gd[i] {
					t.Fatalf("batch %d: BFS(%d)[%d] = %d want %d", batch, src, i, dd[i], gd[i])
				}
			}
		}
	}

	// Rebase folds the overlay and preserves the edge set and generation.
	gen := d.Gen()
	g := d.Rebase()
	if !d.OverlayEmpty() || d.Gen() != gen || d.Base() != g {
		t.Fatal("Rebase did not clear the overlay in place")
	}
	if g.M() != len(ref) {
		t.Fatalf("Rebase lost edges: %d want %d", g.M(), len(ref))
	}
}

func TestDynGraphDeleteThenReinsertAcrossBatches(t *testing.T) {
	base := fromEdges(3, []Edge{{0, 1}, {1, 2}})
	d := NewDynGraph(base)
	if err := d.Apply([]Delta{{U: 0, V: 1, Op: DeltaDelete}}); err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(0, 1) || d.OverlayEmpty() {
		t.Fatal("delete not visible")
	}
	if err := d.Apply([]Delta{{U: 1, V: 0, Op: DeltaInsert}}); err != nil {
		t.Fatal(err)
	}
	// Re-inserting the deleted base edge must cancel the deletion entirely:
	// the overlay is empty again and the compacted graph IS the base.
	if !d.HasEdge(0, 1) || !d.OverlayEmpty() {
		t.Fatal("re-insert did not cancel the deletion")
	}
	if d.Compact() != base {
		t.Fatal("empty overlay must compact to the base graph itself")
	}
	if d.Gen() != 2 {
		t.Fatalf("gen=%d want 2", d.Gen())
	}
}

// TestDynGraphEmptyOverlayZeroAlloc pins the static-path contract: with an
// empty overlay, BFSInto with caller scratch allocates nothing and Compact
// returns the base graph pointer itself.
func TestDynGraphEmptyOverlayZeroAlloc(t *testing.T) {
	base := randomTestGraph(256, 256, xrand.New(7))
	d := NewDynGraph(base)
	dist := make([]int32, base.N())
	queue := make([]int32, 0, base.N())
	allocs := testing.AllocsPerRun(20, func() {
		for i := range dist {
			dist[i] = Unreachable
		}
		d.BFSInto(0, dist, queue)
	})
	if allocs != 0 {
		t.Fatalf("empty-overlay BFSInto allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if d.Compact() != base {
			t.Fatal("empty overlay must compact to the base pointer")
		}
	})
	if allocs != 0 {
		t.Fatalf("empty-overlay Compact allocates %.1f/op, want 0", allocs)
	}
}

func TestDynGraphEdges(t *testing.T) {
	base := fromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	d := NewDynGraph(base)
	if err := d.Apply([]Delta{
		{U: 1, V: 2, Op: DeltaDelete},
		{U: 0, V: 3, Op: DeltaInsert},
	}); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(d.Edges())
	want := fmt.Sprint([]Edge{{0, 1}, {0, 3}, {2, 3}})
	if got != want {
		t.Fatalf("Edges() = %s want %s", got, want)
	}
}
