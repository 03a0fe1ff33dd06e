package gen

import (
	"testing"
	"testing/quick"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

func TestPath(t *testing.T) {
	g := Path(10)
	if g.N() != 10 || g.M() != 9 {
		t.Fatalf("path-10: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("path not connected")
	}
	if g.Diameter() != 9 {
		t.Fatalf("path-10 diameter %d", g.Diameter())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("path max degree %d", g.MaxDegree())
	}
}

func TestPathSingleton(t *testing.T) {
	g := Path(1)
	if g.N() != 1 || g.M() != 0 {
		t.Fatal("Path(1) wrong")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(12)
	if g.N() != 12 || g.M() != 12 {
		t.Fatalf("cycle-12: n=%d m=%d", g.N(), g.M())
	}
	for u := int32(0); u < 12; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("cycle node %d degree %d", u, g.Degree(u))
		}
	}
	if g.Diameter() != 6 {
		t.Fatalf("cycle-12 diameter %d", g.Diameter())
	}
}

func TestCyclePanicsSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycle(2)
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 {
		t.Fatalf("K6 has %d edges", g.M())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K6 diameter %d", g.Diameter())
	}
}

func TestStar(t *testing.T) {
	g := Star(7)
	if g.M() != 6 || g.Degree(0) != 6 {
		t.Fatalf("star-7: m=%d deg0=%d", g.M(), g.Degree(0))
	}
	if g.Diameter() != 2 {
		t.Fatalf("star diameter %d", g.Diameter())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(5, 7)
	if g.N() != 35 {
		t.Fatalf("grid n=%d", g.N())
	}
	wantM := 5*6 + 7*4 // horizontal + vertical edges
	if g.M() != wantM {
		t.Fatalf("grid m=%d, want %d", g.M(), wantM)
	}
	if !g.IsConnected() {
		t.Fatal("grid not connected")
	}
	if g.Diameter() != 4+6 {
		t.Fatalf("grid diameter %d, want 10", g.Diameter())
	}
}

func TestTorus2D(t *testing.T) {
	g := Torus2D(4, 5)
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus n=%d m=%d", g.N(), g.M())
	}
	for u := int32(0); u < 20; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("torus node %d degree %d", u, g.Degree(u))
		}
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 4, 5)
	if g.N() != 60 {
		t.Fatalf("grid3d n=%d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("grid3d not connected")
	}
	if g.Diameter() != 2+3+4 {
		t.Fatalf("grid3d diameter %d", g.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	if g.N() != 32 || g.M() != 80 {
		t.Fatalf("Q5 n=%d m=%d", g.N(), g.M())
	}
	if g.Diameter() != 5 {
		t.Fatalf("Q5 diameter %d", g.Diameter())
	}
}

func TestHypercubeZero(t *testing.T) {
	g := Hypercube(0)
	if g.N() != 1 || g.M() != 0 {
		t.Fatal("Q0 should be a single node")
	}
}

func TestBalancedTree(t *testing.T) {
	g := BalancedTree(3, 3) // 1+3+9+27 = 40 nodes
	if g.N() != 40 {
		t.Fatalf("tree n=%d", g.N())
	}
	if g.M() != g.N()-1 {
		t.Fatalf("tree m=%d", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("tree disconnected")
	}
	if g.Diameter() != 6 {
		t.Fatalf("tree diameter %d", g.Diameter())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	if g.M() != 14 || !g.IsConnected() {
		t.Fatal("binary tree malformed")
	}
	if g.Diameter() != 6 {
		t.Fatalf("binary tree diameter %d", g.Diameter())
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(10, 3)
	if g.N() != 40 || g.M() != 39 || !g.IsConnected() {
		t.Fatalf("caterpillar n=%d m=%d", g.N(), g.M())
	}
}

func TestSpider(t *testing.T) {
	g := Spider(5, 4)
	if g.N() != 21 || g.M() != 20 {
		t.Fatalf("spider n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 5 {
		t.Fatalf("spider centre degree %d", g.Degree(0))
	}
	if g.Diameter() != 8 {
		t.Fatalf("spider diameter %d", g.Diameter())
	}
}

func TestComb(t *testing.T) {
	g := Comb(8, 4)
	if g.N() != 40 || g.M() != 39 || !g.IsConnected() {
		t.Fatalf("comb n=%d m=%d", g.N(), g.M())
	}
}

func TestLollipopAndBarbell(t *testing.T) {
	l := Lollipop(5, 10)
	if l.N() != 15 || !l.IsConnected() {
		t.Fatal("lollipop malformed")
	}
	if l.M() != 10+10 {
		t.Fatalf("lollipop m=%d", l.M())
	}
	b := Barbell(4, 3)
	if b.N() != 11 || !b.IsConnected() {
		t.Fatal("barbell malformed")
	}
	if b.M() != 6+6+4 {
		t.Fatalf("barbell m=%d", b.M())
	}
}

func isTree(g *graph.Graph) bool {
	return g.M() == g.N()-1 && g.IsConnected()
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := xrand.New(1)
	check := func(raw uint16) bool {
		n := 1 + int(raw%200)
		return isTree(RandomTree(n, rng))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeDeterministicForSeed(t *testing.T) {
	a := RandomTree(50, xrand.New(99))
	b := RandomTree(50, xrand.New(99))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestRandomAttachmentTreeIsTree(t *testing.T) {
	rng := xrand.New(2)
	for _, n := range []int{1, 2, 10, 100, 1000} {
		if !isTree(RandomAttachmentTree(n, rng)) {
			t.Fatalf("attachment tree n=%d not a tree", n)
		}
	}
}

func TestGNPEdgeCount(t *testing.T) {
	rng := xrand.New(3)
	n := 400
	p := 0.02
	g := GNP(n, p, rng)
	expected := p * float64(n) * float64(n-1) / 2
	if float64(g.M()) < 0.7*expected || float64(g.M()) > 1.3*expected {
		t.Fatalf("GNP edge count %d far from expectation %v", g.M(), expected)
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := xrand.New(4)
	if g := GNP(50, 0, rng); g.M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if g := GNP(20, 1, rng); g.M() != 190 {
		t.Fatalf("GNP(p=1) m=%d", g.M())
	}
}

func TestConnectedGNPIsConnected(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{10, 100, 500} {
		g := ConnectedGNP(n, 1.2/float64(n), rng)
		if !g.IsConnected() {
			t.Fatalf("ConnectedGNP(%d) disconnected", n)
		}
		if g.N() != n {
			t.Fatalf("ConnectedGNP changed n")
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(6)
	g, err := RandomRegular(100, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("node %d degree %d", u, g.Degree(u))
		}
	}
}

func TestRandomRegularRejectsBadArgs(t *testing.T) {
	rng := xrand.New(7)
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Fatal("d >= n accepted")
	}
	g, err := RandomRegular(10, 0, rng)
	if err != nil || g.M() != 0 {
		t.Fatal("0-regular should be empty graph")
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := xrand.New(8)
	g := WattsStrogatz(200, 3, 0.1, rng)
	if g.N() != 200 {
		t.Fatalf("WS n=%d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("WS disconnected")
	}
	// With beta=0 the graph is the deterministic ring lattice.
	g0 := WattsStrogatz(50, 2, 0, rng)
	if g0.M() != 100 {
		t.Fatalf("WS beta=0 m=%d, want 100", g0.M())
	}
}

func TestIntervalGraphMatchesBruteForce(t *testing.T) {
	rng := xrand.New(10)
	check := func(raw uint16) bool {
		n := 2 + int(raw%40)
		model := make(IntervalModel, n)
		for i := range model {
			lo := rng.Float64() * 10
			model[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*3}
		}
		g := IntervalGraph(model)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := model[i].Lo <= model[j].Hi && model[j].Lo <= model[i].Hi
				if g.HasEdge(int32(i), int32(j)) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomIntervalGraphConnected(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{5, 50, 500} {
		g, model := RandomIntervalGraph(n, 2.0, rng)
		if !g.IsConnected() {
			t.Fatalf("random interval graph n=%d disconnected", n)
		}
		if len(model) != n {
			t.Fatalf("model length %d", len(model))
		}
		// The returned graph must still be the intersection graph of the model.
		g2 := IntervalGraph(model)
		if g2.M() != g.M() {
			t.Fatalf("graph/model mismatch: %d vs %d edges", g.M(), g2.M())
		}
	}
}

func TestUnitIntervalPath(t *testing.T) {
	g, model := UnitIntervalPath(30, 1)
	if len(model) != 30 {
		t.Fatal("model size")
	}
	if !g.IsConnected() {
		t.Fatal("unit interval path disconnected")
	}
	// overlap=1 gives each interior node exactly 2 neighbours.
	if g.MaxDegree() > 2 {
		t.Fatalf("overlap=1 should be a path, max degree %d", g.MaxDegree())
	}
	g3, _ := UnitIntervalPath(30, 3)
	if g3.MaxDegree() <= 2 {
		t.Fatal("overlap=3 should be thicker than a path")
	}
	if !g3.IsConnected() {
		t.Fatal("thick unit interval graph disconnected")
	}
}

func TestGeneratorsProduceExpectedNames(t *testing.T) {
	if Path(4).Name() == "" || Cycle(4).Name() == "" || Grid2D(2, 2).Name() == "" {
		t.Fatal("generators should name their graphs")
	}
}
