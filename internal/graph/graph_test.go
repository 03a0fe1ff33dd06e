package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"navaug/internal/xrand"
)

func buildTriangleWithTail() *Graph {
	// 0-1, 1-2, 2-0 triangle plus tail 2-3-4
	return NewBuilder(5).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 0).
		AddEdge(2, 3).AddEdge(3, 4).
		Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangleWithTail()
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	if d := g.Degree(2); d != 3 {
		t.Fatalf("Degree(2) = %d, want 3", d)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge 0-1")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("phantom edge 0-4")
	}
	if g.HasEdge(3, 3) {
		t.Fatal("self edge reported")
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).AddEdge(1, 2).Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 after dedup", g.M())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

// fromEdges builds a graph from an edge list through the Builder, the
// reference the CSR and overlay tests compare against.
func fromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

func TestNeighborsSorted(t *testing.T) {
	g := NewBuilder(5).AddEdge(0, 4).AddEdge(0, 2).AddEdge(0, 3).AddEdge(0, 1).Build()
	nbr := g.Neighbors(0)
	for i := 1; i < len(nbr); i++ {
		if nbr[i-1] >= nbr[i] {
			t.Fatalf("neighbours not sorted: %v", nbr)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := buildTriangleWithTail()
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.M())
	}
	g2 := fromEdges(g.N(), edges)
	if g2.M() != g.M() {
		t.Fatal("the round trip changed the edge count")
	}
	for _, e := range edges {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestBFSPath(t *testing.T) {
	// Path 0-1-2-3-4
	g := NewBuilder(5).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 4).Build()
	dist := g.BFS(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).Build()
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatal("expected unreachable markers")
	}
}

func TestBFSIntoReusesBuffers(t *testing.T) {
	g := buildTriangleWithTail()
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	reached := g.BFSInto(0, dist, queue)
	if reached != 5 {
		t.Fatalf("reached = %d, want 5", reached)
	}
	if dist[4] != 3 {
		t.Fatalf("dist[4] = %d, want 3", dist[4])
	}
}

func TestIsConnected(t *testing.T) {
	if !buildTriangleWithTail().IsConnected() {
		t.Fatal("triangle with tail should be connected")
	}
	if NewBuilder(3).AddEdge(0, 1).Build().IsConnected() {
		t.Fatal("graph with isolated node reported connected")
	}
	if !NewBuilder(1).Build().IsConnected() {
		t.Fatal("single node should be connected")
	}
	if !NewBuilder(0).Build().IsConnected() {
		t.Fatal("empty graph should be connected")
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder(6).AddEdge(0, 1).AddEdge(2, 3).AddEdge(3, 4).Build()
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[2] != 1 || sizes[3] != 1 || sizes[1] != 1 {
		t.Fatalf("unexpected component sizes: %v", sizes)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := NewBuilder(5).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 4).Build()
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("Eccentricity(2) = %d, want 2", e)
	}
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("Eccentricity(0) = %d, want 4", e)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Diameter = %d, want 4", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1).Build()
	if d := g.Diameter(); d != -1 {
		t.Fatalf("Diameter of disconnected graph = %d, want -1", d)
	}
}

func TestMaxAndAverageDegree(t *testing.T) {
	g := buildTriangleWithTail()
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	want := 2.0 * 5 / 5
	if g.AverageDegree() != want {
		t.Fatalf("AverageDegree = %v, want %v", g.AverageDegree(), want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := buildTriangleWithTail().WithName("tri-tail")
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
	if g2.Name() != "tri-tail" {
		t.Fatalf("name lost: %q", g2.Name())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"nonsense 3 1\n0 1\n",
		"graph 2 1\n0 2\n",
		"graph 2 1\n1 1\n",
		"graph 2 2\n0 1\n",
		"graph 2 1\n0 x\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read accepted bad input %q", c)
		}
	}
}

func TestDOTContainsEdges(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1).Build()
	dot := g.DOT()
	if !strings.Contains(dot, "0 -- 1") {
		t.Fatalf("DOT output missing edge: %s", dot)
	}
	if !strings.Contains(dot, "2;") {
		t.Fatalf("DOT output missing isolated node: %s", dot)
	}
}

func TestStringer(t *testing.T) {
	s := buildTriangleWithTail().WithName("x").String()
	if !strings.Contains(s, "n=5") || !strings.Contains(s, "m=5") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: for random graphs, BFS distances obey the triangle inequality
// along edges (|d(u)-d(v)| <= 1 for every edge when both are reachable).
func TestBFSDistancesSmoothAcrossEdges(t *testing.T) {
	rng := xrand.New(123)
	check := func(seed uint32) bool {
		n := 2 + int(seed%40)
		b := NewBuilder(n)
		// random connected-ish graph: a random tree plus extra edges
		for v := 1; v < n; v++ {
			b.AddEdge(int32(v), int32(rng.Intn(v)))
		}
		extra := rng.Intn(n)
		for i := 0; i < extra; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if du == Unreachable || dv == Unreachable {
				continue
			}
			diff := du - dv
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: dedup + symmetry — HasEdge(u,v) == HasEdge(v,u) always, and the
// sum of degrees equals 2*M.
func TestHandshakeLemma(t *testing.T) {
	rng := xrand.New(321)
	check := func(seed uint32) bool {
		n := 2 + int(seed%30)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		sum := 0
		for u := int32(0); u < int32(n); u++ {
			sum += g.Degree(u)
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSGridLike(b *testing.B) {
	// 100x100 grid built by hand to avoid importing gen (cycle-free deps).
	const side = 100
	gb := NewBuilder(side * side)
	id := func(x, y int) int32 { return int32(x*side + y) }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			if x+1 < side {
				gb.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < side {
				gb.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g := gb.Build()
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dist {
			dist[j] = Unreachable
		}
		g.BFSInto(0, dist, queue)
	}
}
