package dist

import (
	"runtime"
	"sync"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{16, 4}, {17, 5}, {64, 6}, {1000, 10}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// testGraphs is the shared cross-check corpus: assorted shapes including a
// disconnected graph.
func testGraphs() []*graph.Graph {
	rng := xrand.New(42)
	return []*graph.Graph{
		gen.Path(1),
		gen.Path(30),
		gen.Cycle(25),
		gen.Grid2D(7, 9),
		gen.ConnectedGNP(60, 0.08, rng),
		gen.RandomTree(40, rng),
		graph.NewBuilder(6).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 4).Build(), // disconnected + isolated node
	}
}

func TestAPSPMatchesBFS(t *testing.T) {
	for _, g := range testGraphs() {
		a := NewAPSP(g)
		for u := 0; u < g.N(); u++ {
			want := g.BFS(graph.NodeID(u))
			for v := 0; v < g.N(); v++ {
				if d := a.Dist(graph.NodeID(u), graph.NodeID(v)); d != want[v] {
					t.Fatalf("%v: APSP(%d,%d) = %d, BFS says %d", g, u, v, d, want[v])
				}
			}
		}
	}
}

// TestAPSPDeterministicAcrossWorkers builds the matrix at several
// GOMAXPROCS settings, so one to eight goroutines claim its rows, and
// checks every row against a plain BFS each time.
func TestAPSPDeterministicAcrossWorkers(t *testing.T) {
	g := gen.ConnectedGNP(120, 0.05, xrand.New(7))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		a := NewAPSP(g)
		for u := 0; u < g.N(); u++ {
			for v, want := range g.BFS(graph.NodeID(u)) {
				if a.Dist(graph.NodeID(u), graph.NodeID(v)) != want {
					t.Fatalf("GOMAXPROCS=%d: row %d differs from BFS", procs, u)
				}
			}
		}
	}
}

// bfsBounded is the plain map-backed BFS that the ball tests check
// against: the nodes within radius of src in non-decreasing distance order,
// src first at distance 0, with their distances.
func bfsBounded(g *graph.Graph, src graph.NodeID, radius int32) (nodes []graph.NodeID, dists []int32) {
	if radius < 0 {
		return nil, nil
	}
	seen := map[graph.NodeID]bool{src: true}
	nodes = append(nodes, src)
	dists = append(dists, 0)
	for head := 0; head < len(nodes); head++ {
		u, du := nodes[head], dists[head]
		if du == radius {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
				dists = append(dists, du+1)
			}
		}
	}
	return nodes, dists
}

func TestBFSBounded(t *testing.T) {
	g := gen.Path(6)
	nodes, dists := bfsBounded(g, 2, 2)
	if len(nodes) != 5 { // 0,1,2,3,4
		t.Fatalf("ball size %d, want 5", len(nodes))
	}
	for i, d := range dists {
		if d > 2 {
			t.Fatalf("node %d at distance %d > radius", nodes[i], d)
		}
	}
	if nodes[0] != 2 || dists[0] != 0 {
		t.Fatal("ball must start at the centre")
	}
	// Distances must be non-decreasing (BFS order).
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			t.Fatal("bfsBounded distances not sorted")
		}
	}
}

func TestBFSBoundedNegativeRadius(t *testing.T) {
	g := gen.Path(5)
	if nodes, _ := bfsBounded(g, 0, -1); nodes != nil {
		t.Fatal("negative radius should yield empty ball")
	}
}

func TestBallMatchesBFSBounded(t *testing.T) {
	for _, g := range testGraphs() {
		if g.N() == 0 {
			continue
		}
		b := NewBallBuffer(g.N())
		for _, radius := range []int32{0, 1, 2, 5, int32(g.N())} {
			for u := 0; u < g.N(); u += 3 {
				src := graph.NodeID(u)
				nodes, dists := b.Ball(g, src, radius)
				wantNodes, wantDists := bfsBounded(g, src, radius)
				if len(nodes) != len(wantNodes) {
					t.Fatalf("%v: |B(%d,%d)| = %d, bfsBounded says %d", g, u, radius, len(nodes), len(wantNodes))
				}
				got := make(map[graph.NodeID]int32, len(nodes))
				for i, v := range nodes {
					got[v] = dists[i]
				}
				for i, v := range wantNodes {
					if got[v] != wantDists[i] {
						t.Fatalf("%v: ball dist of %d is %d, want %d", g, v, got[v], wantDists[i])
					}
				}
				// Distances must come out non-decreasing, src first.
				if nodes[0] != src || dists[0] != 0 {
					t.Fatalf("ball must start at src")
				}
				for i := 1; i < len(dists); i++ {
					if dists[i] < dists[i-1] {
						t.Fatalf("ball distances not sorted: %v", dists)
					}
				}
			}
		}
	}
	if nodes, _ := NewBallBuffer(5).Ball(gen.Path(5), 0, -1); len(nodes) != 0 {
		t.Fatal("negative radius must yield an empty ball")
	}
}

func TestBallBufferReuse(t *testing.T) {
	g := gen.Grid2D(10, 10)
	b := NewBallBuffer(g.N())
	want, _ := NewBallBuffer(g.N()).Ball(g, 37, 3)
	for i := 0; i < 100; i++ {
		nodes, dists := b.Ball(g, 37, 3)
		if len(nodes) != len(want) || len(dists) != len(nodes) {
			t.Fatalf("iteration %d: ball size changed: %d vs %d", i, len(nodes), len(want))
		}
		for j, v := range want {
			if nodes[j] != v {
				t.Fatalf("iteration %d: ball contents changed", i)
			}
		}
	}
	// Epoch wrap-around must not corrupt results.
	b.epoch = -2
	nodes, _ := b.Ball(g, 37, 3)
	if len(nodes) != len(want) {
		t.Fatalf("pre-wrap ball size %d, want %d", len(nodes), len(want))
	}
	nodes, _ = b.Ball(g, 37, 3) // epoch wraps to 0 → reset path
	if len(nodes) != len(want) {
		t.Fatalf("post-wrap ball size %d, want %d", len(nodes), len(want))
	}
}

func TestEstimateDiameterBounds(t *testing.T) {
	rng := xrand.New(3)
	if EstimateDiameter(graph.NewBuilder(0).Build(), 4, rng) != 0 {
		t.Fatal("empty graph estimate should be 0")
	}
	// Exact on trees (double sweep from any start).
	for _, g := range []*graph.Graph{gen.Path(50), gen.RandomTree(80, rng), gen.Star(20)} {
		if est, want := EstimateDiameter(g, 1, rng), g.Diameter(); est != want {
			t.Fatalf("%v: tree estimate %d, want exact %d", g, est, want)
		}
	}
	// On general connected graphs: a lower bound, never below half.
	for _, g := range []*graph.Graph{gen.Grid2D(9, 13), gen.Cycle(31), gen.ConnectedGNP(70, 0.07, rng)} {
		diam := g.Diameter()
		est := EstimateDiameter(g, 4, rng)
		if est > diam {
			t.Fatalf("%v: estimate %d exceeds diameter %d", g, est, diam)
		}
		if int32(2)*est < diam {
			t.Fatalf("%v: estimate %d below half the diameter %d", g, est, diam)
		}
	}
}

func TestExtremalPair(t *testing.T) {
	if a, b, d := ExtremalPair(graph.NewBuilder(0).Build()); a != 0 || b != 0 || d != 0 {
		t.Fatalf("empty graph pair (%d,%d,%d)", a, b, d)
	}
	// On a path the double sweep is exact: sweep one finds an end, sweep two
	// the other, and the distance is the diameter.
	a, b, d := ExtremalPair(gen.Path(50))
	if d != 49 {
		t.Fatalf("path extremal distance %d, want 49", d)
	}
	if !(a == 49 && b == 0) && !(a == 0 && b == 49) {
		t.Fatalf("path extremal pair (%d,%d), want the two ends", a, b)
	}
	// General connected graphs: the endpoints realise the returned distance
	// and it is a valid diameter lower bound.
	g := gen.Grid2D(8, 11)
	a, b, d = ExtremalPair(g)
	if got := g.BFS(a)[b]; got != d {
		t.Fatalf("extremal endpoints at distance %d, reported %d", got, d)
	}
	if diam := g.Diameter(); d > diam || 2*d < diam {
		t.Fatalf("extremal distance %d outside [diam/2, diam] for diameter %d", d, diam)
	}
	// Deterministic: a pure function of the graph.
	a2, b2, d2 := ExtremalPair(g)
	if a2 != a || b2 != b || d2 != d {
		t.Fatal("ExtremalPair is not deterministic")
	}
}

func TestLandmarkOracleBounds(t *testing.T) {
	rng := xrand.New(5)
	for _, g := range []*graph.Graph{gen.Path(40), gen.Grid2D(8, 8), gen.ConnectedGNP(80, 0.06, rng)} {
		exact := NewAPSP(g)
		for _, k := range []int{1, 4, 16} {
			o := NewLandmarkOracle(g, k, xrand.New(9))
			if o.K() != k {
				t.Fatalf("K() = %d, want %d", o.K(), k)
			}
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					lo, hi := o.Bounds(graph.NodeID(u), graph.NodeID(v))
					d := exact.Dist(graph.NodeID(u), graph.NodeID(v))
					if lo > d || d > hi {
						t.Fatalf("%v k=%d: bounds [%d,%d] miss exact %d for (%d,%d)", g, k, lo, hi, d, u, v)
					}
					if o.Dist(graph.NodeID(u), graph.NodeID(v)) != hi {
						t.Fatalf("Dist must equal the upper bound")
					}
				}
			}
		}
	}
}

func TestLandmarkOracleExactThroughLandmarks(t *testing.T) {
	// With a landmark on every node the upper bound is exact.
	g := gen.Cycle(12)
	o := NewLandmarkOracle(g, 12, xrand.New(1))
	exact := NewAPSP(g)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if o.Dist(graph.NodeID(u), graph.NodeID(v)) != exact.Dist(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("full landmark set not exact at (%d,%d)", u, v)
			}
		}
	}
}

func TestLandmarkOracleDisconnected(t *testing.T) {
	g := graph.NewBuilder(6).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 4).AddEdge(4, 5).Build()
	// Farthest-point selection must claim both components by k=2.
	o := NewLandmarkOracle(g, 2, xrand.New(2))
	if d := o.Dist(0, 5); d != graph.Unreachable {
		t.Fatalf("cross-component Dist = %d, want Unreachable", d)
	}
	if d := o.Dist(0, 2); d == graph.Unreachable {
		t.Fatal("in-component pair reported unreachable")
	}
	if lo, hi := o.Bounds(3, 3); lo != 0 || hi != 0 {
		t.Fatalf("self pair bounds [%d,%d], want [0,0]", lo, hi)
	}
}

func TestLandmarkOracleDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(100, 0.05, xrand.New(11))
	a := NewLandmarkOracle(g, 8, xrand.New(33))
	b := NewLandmarkOracle(g, 8, xrand.New(33))
	for i, l := range a.landmarks {
		if b.landmarks[i] != l {
			t.Fatal("same seed picked different landmarks")
		}
	}
}

func TestFieldCache(t *testing.T) {
	g := gen.Grid2D(12, 12)
	c := NewFieldCache(g, 0)
	f1 := c.Field(17)
	want := g.BFS(17)
	for v := range want {
		if f1[v] != want[v] {
			t.Fatalf("cached field differs from BFS at %d", v)
		}
	}
	f2 := c.Field(17)
	if &f1[0] != &f2[0] {
		t.Fatal("second lookup did not reuse the cached field")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestFieldCacheEviction(t *testing.T) {
	g := gen.Path(30)
	c := NewFieldCache(g, 3)
	for src := 0; src < 10; src++ {
		c.Field(graph.NodeID(src))
	}
	if c.Len() != 3 {
		t.Fatalf("capacity 3 cache holds %d fields", c.Len())
	}
	// Evicted entries recompute correctly.
	if d := c.Field(0); d[29] != 29 {
		t.Fatalf("recomputed field wrong: %d", d[29])
	}
}

func TestFieldCacheConcurrent(t *testing.T) {
	g := gen.Grid2D(20, 20)
	c := NewFieldCache(g, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := graph.NodeID((w*31 + i*7) % g.N())
				f := c.Field(src)
				if f[src] != 0 || len(f) != g.N() {
					errs <- "bad field"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestFieldSource: the BFS-field adapter must report the wrapped field's
// values and its root.
func TestFieldSource(t *testing.T) {
	g := gen.Grid2D(7, 9)
	tgt := graph.NodeID(17)
	d := g.BFS(tgt)
	f := NewField(d)
	if f.Dist(tgt, tgt) != 0 {
		t.Fatal("field not rooted at its target")
	}
	for u := 0; u < g.N(); u++ {
		if f.Dist(graph.NodeID(u), tgt) != d[u] {
			t.Fatalf("field source diverges from the wrapped slice at %d", u)
		}
	}
}
