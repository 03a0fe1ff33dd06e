package churn

import (
	"fmt"
	"slices"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// runSingle is the reference pipeline: one budget run from scratch on its
// own DynGraph, drawing its own deltas, computing its own dirty sets and
// building its own labels at the start and at every compaction — the
// pipeline before streams were shared across budgets.
func runSingle(base *graph.Graph, seed uint64, spec Spec, workers int) (*Result, error) {
	opts := dist.TwoHopOptions{Workers: workers}
	d := graph.NewDynGraph(base)
	oracle := dist.NewDynTwoHop(dist.NewTwoHopWith(d.Compact(), opts), d.Gen())
	st := &Stream{Base: base, Seed: seed, spec: spec}
	rng := xrand.New(seed)
	for b := 0; b < spec.Batches; b++ {
		deltas := nextBatch(d, rng, spec.Rate)
		for _, dl := range deltas {
			if dl.Op == graph.DeltaDelete {
				st.EdgesDeleted++
			} else {
				st.EdgesInserted++
			}
		}
		dirty, err := dist.ApplyDirty(d, deltas)
		if err != nil {
			return nil, err
		}
		if err := oracle.Repair(d.Compact(), d.Gen(), dirty, spec.RepairBudget); err != nil {
			return nil, err
		}
		st.Dirty = append(st.Dirty, dirty)
		if spec.CompactEvery > 0 && (b+1)%spec.CompactEvery == 0 && b+1 < spec.Batches {
			d.Rebase()
			if err := oracle.Relabel(dist.NewTwoHopWith(d.Compact(), opts), d.Gen()); err != nil {
				return nil, err
			}
		}
	}
	st.Gen = d.Gen()
	st.Final = d.Compact()
	for _, comp := range st.Final.Components() {
		st.Components++
		st.LargestComponent = max(st.LargestComponent, len(comp))
	}
	stats := oracle.Stats()
	return &Result{
		Stream: st, Spec: spec, Oracle: oracle,
		DirtyTotal: stats.DirtyTotal, PatchedTotal: stats.PatchedTotal,
		DebtRemaining: oracle.Debt(), Rebuilds: stats.Rebuilds,
	}, nil
}

// TestReplayMatchesSinglePipeline is the differential test of stream
// sharing: one stream replayed at each budget must match the reference
// pipeline run from scratch at that budget — dirty sets, edge tallies,
// repair stats, the final CSR, the debt, and every pairwise distance the
// oracle answers — at one and three label-build workers.
func TestReplayMatchesSinglePipeline(t *testing.T) {
	cases := []struct {
		name string
		base *graph.Graph
		spec Spec
	}{
		{"compacting", churnGraph(120, 50, 3), Spec{Rate: 0.03, Batches: 6, CompactEvery: 2}},
		{"no-compaction", churnGraph(90, 20, 8), Spec{Rate: 0.05, Batches: 4}},
		{"tree", churnGraph(100, 0, 1), Spec{Rate: 0.04, Batches: 5, CompactEvery: 3}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			st, err := NewStream(tc.base, 4242, tc.spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{0, 3, -1} {
				t.Run(fmt.Sprintf("%s/w%d/k%d", tc.name, workers, budget), func(t *testing.T) {
					spec := tc.spec
					spec.RepairBudget = budget
					got, err := st.Replay(budget)
					if err != nil {
						t.Fatal(err)
					}
					want, err := runSingle(tc.base, 4242, spec, workers)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, got, want)
				})
			}
		}
	}
}

// churnGraph is a spanning path plus extra random edges.
func churnGraph(n, extra int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	for i := 0; i < extra; i++ {
		if u, v := int32(rng.Intn(n)), int32(rng.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Fatalf("spec %+v, want %+v", got.Spec, want.Spec)
	}
	if !slices.EqualFunc(got.Dirty, want.Dirty, slices.Equal) {
		t.Fatalf("dirty sets %v, want %v", got.Dirty, want.Dirty)
	}
	if got.EdgesDeleted != want.EdgesDeleted || got.EdgesInserted != want.EdgesInserted ||
		got.Gen != want.Gen || got.Components != want.Components || got.LargestComponent != want.LargestComponent {
		t.Fatalf("stream tallies differ: got %d/%d gen %d comps %d/%d, want %d/%d gen %d comps %d/%d",
			got.EdgesDeleted, got.EdgesInserted, got.Gen, got.Components, got.LargestComponent,
			want.EdgesDeleted, want.EdgesInserted, want.Gen, want.Components, want.LargestComponent)
	}
	if got.DirtyTotal != want.DirtyTotal || got.PatchedTotal != want.PatchedTotal ||
		got.DebtRemaining != want.DebtRemaining || got.Rebuilds != want.Rebuilds {
		t.Fatalf("repair tallies differ: got %+v, want %+v", got, want)
	}
	if gs, ws := got.Oracle.Stats(), want.Oracle.Stats(); gs != ws {
		t.Fatalf("Stats() %+v, want %+v", gs, ws)
	}
	if got.Oracle.Debt() != want.Oracle.Debt() {
		t.Fatalf("Debt() %d, want %d", got.Oracle.Debt(), want.Oracle.Debt())
	}
	gOff, gAdj := got.Final.RawCSR()
	wOff, wAdj := want.Final.RawCSR()
	if !slices.Equal(gOff, wOff) || !slices.Equal(gAdj, wAdj) {
		t.Fatal("final CSR differs")
	}
	n := int32(got.Final.N())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if a, b := got.Oracle.Dist(u, v), want.Oracle.Dist(u, v); a != b {
				t.Fatalf("Dist(%d,%d) = %d, reference answers %d", u, v, a, b)
			}
		}
	}
}
