package dist_test

import (
	"slices"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/dist/disttest"
	"navaug/internal/graph"
)

// FuzzDynTwoHop drives the split dirty-set + repair API through a stream
// of valid delta batches decoded as in graph.FuzzDynGraph, and checks after
// every batch and every compaction:
//
//   - the dirty set ApplyDirty reports is the definition D, every node
//     whose distance to some delta endpoint changed, recomputed by BFS on
//     the graph before and after the batch;
//   - an oracle at budget -1 answers every pair like BFS (disttest.Exact);
//   - an oracle under the fuzzed budget (0..3) answers a pair wrongly only
//     when one of its nodes is in the debt set;
//   - an oracle replayed on a DynGraph of its own, from the recorded dirty
//     sets and labels built once for the stream, answers every pair, and
//     reports the debt and stats, exactly like the oracle that computed its
//     own dirty sets and built its own labels;
//   - a second replay, queried only after the last batch, so that its
//     patch fields are computed long after their batches, answers every
//     pair exactly like the oracles queried after every batch.
//
// The base graph comes from baseEdges, read as node pairs mod n.  The
// stream is read three bytes per op: two endpoints mod n and a control
// byte.  An op toggles its edge.  Control bit 0 ends the batch, bit 1
// compacts after it (rebase and relabel), bit 2 swaps the endpoints.
func FuzzDynTwoHop(f *testing.F) {
	f.Add(uint8(6), uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, []byte{0, 1, 0, 1, 0, 1, 2, 5, 3})
	f.Add(uint8(3), uint8(4), []byte{0, 1}, []byte{0, 1, 1, 0, 1, 5, 0, 2, 0, 0, 2, 2})
	f.Add(uint8(12), uint8(2), []byte{0, 5, 5, 9, 9, 11, 1, 2}, []byte{5, 0, 4, 3, 4, 1, 3, 4, 3, 0, 9, 6, 7, 8, 1})
	f.Add(uint8(16), uint8(1), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 8, 9, 9, 10, 10, 11},
		[]byte{0, 4, 0, 2, 6, 1, 7, 8, 2, 3, 4, 0, 11, 8, 1, 0, 1, 3, 1, 5, 0, 9, 10, 1})
	f.Add(uint8(1), uint8(3), []byte{}, []byte{0, 0, 1})
	// Isolated nodes joined and cut again: a patch's field computed on a
	// later graph than its own answers differently.
	f.Add(uint8('T'), uint8(2), []byte("0"), []byte("011070020"))
	f.Fuzz(func(t *testing.T, rawN, rawBudget uint8, baseEdges, stream []byte) {
		n := int(rawN)%24 + 1
		budget := int(rawBudget) % 4 // 0..3
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(baseEdges); i += 2 {
			if u, v := graph.NodeID(int(baseEdges[i])%n), graph.NodeID(int(baseEdges[i+1])%n); u != v {
				b.AddEdge(u, v)
			}
		}
		base := b.Build()
		has := make([]bool, n*n)
		for _, e := range base.Edges() {
			has[int(e.U)*n+int(e.V)], has[int(e.V)*n+int(e.U)] = true, true
		}

		// d is the stream's graph: ApplyDirty computes each batch's dirty
		// set on it, and the exact and own oracles repair over it.  dr is
		// the replay's graph.
		d, dr := graph.NewDynGraph(base), graph.NewDynGraph(base)
		shared := dist.NewTwoHopWith(base, dist.TwoHopOptions{Workers: 2})
		exact := dist.NewDynTwoHop(shared, 0)
		own := dist.NewDynTwoHop(dist.NewTwoHop(base), 0)
		replay := dist.NewDynTwoHop(shared, 0)
		late := dist.NewDynTwoHop(shared, 0)

		var batch []graph.Delta
		flush := func(compact bool) {
			before := d.Compact()
			dirty, err := dist.ApplyDirty(d, batch)
			if err != nil {
				t.Fatalf("valid batch %v rejected: %v", batch, err)
			}
			if want := dirtyByDefinition(before, d.Compact(), batch); !slices.Equal(dirty, want) {
				t.Fatalf("batch %v: dirty set %v, want %v", batch, dirty, want)
			}
			if err := dr.Apply(batch); err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				o      *dist.DynTwoHop
				g      *graph.DynGraph
				budget int
			}{{exact, d, -1}, {own, d, budget}, {replay, dr, budget}, {late, dr, budget}} {
				if err := step.o.Repair(step.g.Compact(), step.g.Gen(), dirty, step.budget); err != nil {
					t.Fatal(err)
				}
			}
			batch = batch[:0]
			checkDynTwoHop(t, d.Compact(), exact, own, replay)
			if compact {
				shared = dist.NewTwoHopWith(d.Rebase(), dist.TwoHopOptions{Workers: 2})
				dr.Rebase()
				for _, step := range []struct {
					o      *dist.DynTwoHop
					labels *dist.TwoHop
				}{{exact, shared}, {own, dist.NewTwoHop(d.Base())}, {replay, shared}, {late, shared}} {
					if err := step.o.Relabel(step.labels, d.Gen()); err != nil {
						t.Fatal(err)
					}
				}
				checkDynTwoHop(t, d.Compact(), exact, own, replay)
			}
		}
		for i := 0; i+2 < len(stream); i += 3 {
			u, v, ctl := graph.NodeID(int(stream[i])%n), graph.NodeID(int(stream[i+1])%n), stream[i+2]
			if u != v {
				op := graph.DeltaInsert
				if has[int(u)*n+int(v)] {
					op = graph.DeltaDelete
				}
				has[int(u)*n+int(v)] = op == graph.DeltaInsert
				has[int(v)*n+int(u)] = op == graph.DeltaInsert
				if ctl&4 != 0 {
					u, v = v, u
				}
				batch = append(batch, graph.Delta{U: u, V: v, Op: op})
			}
			if ctl&1 != 0 {
				flush(ctl&2 != 0)
			}
		}
		flush(false)
		for u := graph.NodeID(0); int(u) < n; u++ {
			for v := graph.NodeID(0); int(v) < n; v++ {
				if got, want := late.Dist(u, v), own.Dist(u, v); got != want {
					t.Fatalf("late-queried Dist(%d,%d) = %d, oracle queried after every batch says %d", u, v, got, want)
				}
			}
		}
		if late.Stats() != own.Stats() {
			t.Fatalf("late-queried stats %+v, want %+v", late.Stats(), own.Stats())
		}
	})
}

// dirtyByDefinition returns D for one batch from the graphs before and
// after it: every node whose BFS distance to some delta endpoint differs,
// ascending.
func dirtyByDefinition(before, after *graph.Graph, batch []graph.Delta) []graph.NodeID {
	isDirty := make([]bool, before.N())
	for _, dl := range batch {
		for _, e := range []graph.NodeID{dl.U, dl.V} {
			old, cur := before.BFS(e), after.BFS(e)
			for w := range old {
				if old[w] != cur[w] {
					isDirty[w] = true
				}
			}
		}
	}
	var out []graph.NodeID
	for w, dirt := range isDirty {
		if dirt {
			out = append(out, graph.NodeID(w))
		}
	}
	return out
}

// checkDynTwoHop checks the three oracles of FuzzDynTwoHop against BFS on
// g and against each other.
func checkDynTwoHop(t *testing.T, g *graph.Graph, exact, own, replay *dist.DynTwoHop) {
	t.Helper()
	disttest.Exact(t, g, exact)
	if exact.Debt() != 0 {
		t.Fatalf("unlimited budget left debt %d", exact.Debt())
	}
	debt := make([]bool, g.N())
	for _, w := range dist.DebtNodes(own) {
		debt[w] = true
	}
	if len(dist.DebtNodes(own)) != own.Debt() {
		t.Fatalf("debt set %v, Debt() = %d", dist.DebtNodes(own), own.Debt())
	}
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		truth := g.BFS(u)
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			got := own.Dist(u, v)
			if got != truth[v] && !debt[u] && !debt[v] {
				t.Fatalf("Dist(%d,%d) = %d, BFS says %d, and neither node is in debt %v",
					u, v, got, truth[v], dist.DebtNodes(own))
			}
			if r := replay.Dist(u, v); r != got {
				t.Fatalf("replayed Dist(%d,%d) = %d, own pipeline says %d", u, v, r, got)
			}
		}
	}
	if !slices.Equal(dist.DebtNodes(replay), dist.DebtNodes(own)) || replay.Stats() != own.Stats() {
		t.Fatalf("replay debt %v stats %+v, own pipeline debt %v stats %+v",
			dist.DebtNodes(replay), replay.Stats(), dist.DebtNodes(own), own.Stats())
	}
}
