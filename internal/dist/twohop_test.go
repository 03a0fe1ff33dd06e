package dist

import (
	"slices"
	"strings"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// twoHopTestGraphs builds a mix of structured, unstructured and
// disconnected graphs sized for exhaustive checking.
func twoHopTestGraphs() map[string]*graph.Graph {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3) // component {0..3}
	b.AddEdge(4, 5)                             // component {4,5}; node 6 isolated
	disconnected := b.Build()
	line := graph.NewBuilder(1).Build()
	return map[string]*graph.Graph{
		"path":         pathGraph(64),
		"cycle":        cycleGraph(65),
		"grid":         gridGraph(9, 7),
		"rtree":        randomTreeLike(257, 3),
		"disconnected": disconnected,
		"singleton":    line,
	}
}

// pathGraph, cycleGraph, gridGraph, cubeGraph and randomTreeLike are tiny
// local builders: the dist package cannot import gen (gen depends on dist).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func gridGraph(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	return b.Build()
}

// cubeGraph is the side×side×side grid, of diameter 3(side-1).
func cubeGraph(side int) *graph.Graph {
	b := graph.NewBuilder(side * side * side)
	for v := 0; v < side*side*side; v++ {
		for _, step := range []int{1, side, side * side} {
			if v/step%side+1 < side {
				b.AddEdge(int32(v), int32(v+step))
			}
		}
	}
	return b.Build()
}

// randomTreeLike attaches node v to a pseudo-random earlier node, plus a
// few extra chords for cycles (duplicates merge at Build time).
func randomTreeLike(n, chords int) *graph.Graph {
	rng := xrand.New(99)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	for i := 0; i < chords; i++ {
		u := int32(rng.Intn(n - 1))
		b.AddEdge(u, u+1+int32(rng.Intn(n-1-int(u))))
	}
	return b.Build()
}

// TestTwoHopExactAllPairs checks the oracle against BFS on every pair of
// every test graph, including unreachable ones.  (The disttest package
// runs the richer cross-family conformance suite; this is the in-package
// smoke that survives even if disttest is skipped.)
func TestTwoHopExactAllPairs(t *testing.T) {
	for name, g := range twoHopTestGraphs() {
		o := NewTwoHop(g)
		n := g.N()
		for u := 0; u < n; u++ {
			d := g.BFS(graph.NodeID(u))
			for v := 0; v < n; v++ {
				if got := o.Dist(graph.NodeID(u), graph.NodeID(v)); got != d[v] {
					t.Fatalf("%s: Dist(%d,%d) = %d, BFS says %d", name, u, v, got, d[v])
				}
			}
		}
	}
}

// TestTwoHopDeterministicAcrossWorkers is the parallel-build contract: the
// packed label arrays must be identical — entry by entry, hub by hub — no
// matter how many workers built them.  It runs under -race in CI, which
// also exercises the batch barrier for data races.
func TestTwoHopDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range twoHopTestGraphs() {
		base := NewTwoHopWith(g, TwoHopOptions{Workers: 1})
		for _, workers := range []int{2, 3, 8} {
			o := NewTwoHopWith(g, TwoHopOptions{Workers: workers})
			if o.entries != base.entries {
				t.Fatalf("%s: %d workers produced %d entries, 1 worker %d",
					name, workers, o.entries, base.entries)
			}
			for v := 0; v < g.N(); v++ {
				bh, bd := base.Label(graph.NodeID(v))
				oh, od := o.Label(graph.NodeID(v))
				if len(bh) != len(oh) {
					t.Fatalf("%s: node %d label size %d at %d workers, %d at 1",
						name, v, len(oh), workers, len(bh))
				}
				for i := range bh {
					if bh[i] != oh[i] || bd[i] != od[i] {
						t.Fatalf("%s: node %d entry %d differs: (%d,%d) at %d workers vs (%d,%d) at 1",
							name, v, i, oh[i], od[i], workers, bh[i], bd[i])
					}
				}
			}
		}
	}
}

// TestTwoHopDeterministicAcrossBuilds pins bit-level reproducibility of
// two independent builds (same graph, same options) — the property the
// byte-identical-JSON CI smoke ultimately rests on.
func TestTwoHopDeterministicAcrossBuilds(t *testing.T) {
	g := gridGraph(16, 16)
	a, b := NewTwoHop(g), NewTwoHop(g)
	if a.entries != b.entries {
		t.Fatalf("entries differ: %d vs %d", a.entries, b.entries)
	}
	for v := 0; v < g.N(); v++ {
		ah, ad := a.Label(graph.NodeID(v))
		bh, bd := b.Label(graph.NodeID(v))
		for i := range ah {
			if ah[i] != bh[i] || ad[i] != bd[i] {
				t.Fatalf("node %d entry %d differs", v, i)
			}
		}
	}
}

// TestTwoHopLabelBudget checks the auto-policy escape hatch: a tight
// budget aborts the build (nil return), a generous one succeeds, and
// whether the abort fires is independent of the worker count.
func TestTwoHopLabelBudget(t *testing.T) {
	g := gridGraph(24, 24) // grid labels grow ~sqrt(n), well over 4 per node
	for _, workers := range []int{1, 4} {
		if o := NewTwoHopWith(g, TwoHopOptions{Workers: workers, MaxAvgLabel: 4}); o != nil {
			t.Fatalf("workers=%d: expected nil for a 4-entry budget, got avg %.1f", workers, o.AvgLabel())
		}
		if o := NewTwoHopWith(g, TwoHopOptions{Workers: workers, MaxAvgLabel: 1e9}); o == nil {
			t.Fatalf("workers=%d: generous budget still aborted", workers)
		}
	}
}

// TestTwoHopStats sanity-checks the label statistics accessors.
func TestTwoHopStats(t *testing.T) {
	g := pathGraph(100)
	o := NewTwoHop(g)
	if o.N() != 100 {
		t.Fatalf("N() = %d", o.N())
	}
	if o.entries < int64(g.N()) {
		t.Fatalf("only %d entries for %d nodes (every node labels itself)", o.entries, g.N())
	}
	if avg := o.AvgLabel(); avg <= 0 || avg > float64(g.N()) {
		t.Fatalf("AvgLabel() = %v", avg)
	}
	if mx := o.MaxLabel(); mx < int(o.AvgLabel()) || mx > g.N() {
		t.Fatalf("MaxLabel() = %d", mx)
	}
	if o.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes() = %d", o.MemoryBytes())
	}
}

// TestSourcePolicyResolve checks the resolver's tier choices.
func TestSourcePolicyResolve(t *testing.T) {
	small := gridGraph(8, 8)
	metric := NewField(small.BFS(3)) // stand-in analytic source
	isMetric := func(src Source) bool {
		f, ok := src.(Field)
		return ok && &f.d[0] == &metric.d[0]
	}
	if src := PolicyField.ResolveWith(small, metric, 0); src != nil {
		t.Fatal("field policy must resolve to nil (BFS fields)")
	}
	if src := PolicyAnalytic.ResolveWith(small, metric, 0); !isMetric(src) {
		t.Fatal("analytic policy must hand back the metric")
	}
	if src := PolicyAnalytic.ResolveWith(small, nil, 0); src != nil {
		t.Fatal("analytic policy without a metric must fall back to fields")
	}
	if _, ok := PolicyTwoHop.ResolveWith(small, metric, 0).(*TwoHop); !ok {
		t.Fatal("twohop policy must build the oracle even when a metric exists")
	}
	if _, ok := PolicyTwoHopPacked.ResolveWith(small, metric, 0).(*TwoHop); !ok {
		t.Fatal("twohop-packed policy must build the oracle even when a metric exists")
	}
	if src := PolicyAuto.ResolveWith(small, metric, 0); !isMetric(src) {
		t.Fatal("auto policy must prefer the metric")
	}
	if src := PolicyAuto.ResolveWith(small, nil, 0); src != nil {
		t.Fatalf("auto policy on a small metric-less graph must use fields, got %T", src)
	}
	_, err := ParseSourcePolicy("nope")
	if err == nil {
		t.Fatal("ParseSourcePolicy accepted garbage")
	}
	// The error's "known" list and the accepted policies must agree.
	msg := err.Error()
	i, j := strings.Index(msg, "(known: "), strings.LastIndex(msg, ")")
	if i < 0 || j < i {
		t.Fatalf("ParseSourcePolicy error lists no known policies: %q", msg)
	}
	named := strings.Split(msg[i+len("(known: "):j], ", ")
	for _, name := range named {
		want := SourcePolicy(name)
		if want == PolicyTwoHopPacked {
			want = PolicyTwoHop // a synonym
		}
		if p, err := ParseSourcePolicy(name); err != nil || p != want {
			t.Fatalf("policy %q named in the error does not parse: (%v, %v)", name, p, err)
		}
	}
	for _, p := range []SourcePolicy{PolicyAuto, PolicyAnalytic, PolicyTwoHop, PolicyTwoHopPacked, PolicyField} {
		if _, err := ParseSourcePolicy(string(p)); err != nil {
			t.Fatalf("ParseSourcePolicy(%q): %v", p, err)
		}
		if !slices.Contains(named, string(p)) {
			t.Fatalf("accepted policy %q missing from the error's list %q", p, msg)
		}
	}
	if p, err := ParseSourcePolicy(""); err != nil || p != PolicyAuto {
		t.Fatalf("ParseSourcePolicy(%q) = (%v, %v), want auto", "", p, err)
	}
}
