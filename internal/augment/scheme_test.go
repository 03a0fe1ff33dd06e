package augment

import (
	"math"
	"sync"
	"testing"

	"navaug/internal/decomp"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

func TestUniformSchemeDistribution(t *testing.T) {
	g := gen.Path(20)
	inst, err := NewUniformScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	counts := make([]int, 20)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[inst.Contact(7, rng)]++
	}
	for v, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.05) > 0.01 {
			t.Fatalf("node %d frequency %v, want 0.05", v, frac)
		}
	}
}

func TestUniformSchemeEmptyGraph(t *testing.T) {
	if _, err := NewUniformScheme().Prepare(graph.NewBuilder(0).Build()); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestNoAugmentation(t *testing.T) {
	g := gen.Path(5)
	inst, err := NewNoAugmentation().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	for v := int32(0); v < 5; v++ {
		if inst.Contact(v, rng) != v {
			t.Fatal("no-augmentation scheme must return the node itself")
		}
	}
	if NewNoAugmentation().Name() != "none" {
		t.Fatal("name")
	}
}

func TestBallSchemeContactsWithinBall(t *testing.T) {
	g := gen.Path(64)
	inst, err := NewBallScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	maxRadius := int32(64) // 2^ceil(log2 64) = 64
	for i := 0; i < 2000; i++ {
		u := graph.NodeID(rng.Intn(64))
		c := inst.Contact(u, rng)
		d := u - c
		if d < 0 {
			d = -d
		}
		if d > maxRadius {
			t.Fatalf("contact at distance %d exceeds max radius %d", d, maxRadius)
		}
	}
}

func TestBallSchemeScaleMixture(t *testing.T) {
	// On a long path, the distance distribution of contacts from a central
	// node should put noticeable mass both near (distance <= 2) and far
	// (distance > 32) because every scale k is equally likely.
	g := gen.Path(257)
	inst, err := NewBallScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	centre := graph.NodeID(128)
	near, far := 0, 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		c := inst.Contact(centre, rng)
		d := int(math.Abs(float64(c - centre)))
		if d <= 2 {
			near++
		}
		if d > 32 {
			far++
		}
	}
	if near < draws/40 {
		t.Fatalf("near contacts too rare: %d/%d", near, draws)
	}
	if far < draws/40 {
		t.Fatalf("far contacts too rare: %d/%d", far, draws)
	}
}

func TestBallSchemeFixedScale(t *testing.T) {
	g := gen.Path(128)
	inst, err := (&BallScheme{FixedScale: 1}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		u := graph.NodeID(rng.Intn(128))
		c := inst.Contact(u, rng)
		d := u - c
		if d < 0 {
			d = -d
		}
		if d > 2 {
			t.Fatalf("fixed scale 1 should stay within radius 2, got %d", d)
		}
	}
	if _, err := (&BallScheme{FixedScale: 50}).Prepare(g); err == nil {
		t.Fatal("excessive fixed scale accepted")
	}
}

func TestBallSchemeRankUniform(t *testing.T) {
	g := gen.Path(128)
	inst, err := (&BallScheme{RankUniform: true}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	for i := 0; i < 500; i++ {
		u := graph.NodeID(rng.Intn(128))
		c := inst.Contact(u, rng)
		if c < 0 || c >= 128 {
			t.Fatalf("contact %d out of range", c)
		}
	}
}

func TestBallSchemeNames(t *testing.T) {
	if NewBallScheme().Name() != "ball" {
		t.Fatal("default name")
	}
	if (&BallScheme{FixedScale: 3}).Name() != "ball-fixed3" {
		t.Fatal("fixed name")
	}
	if (&BallScheme{RankUniform: true}).Name() != "ball-rank" {
		t.Fatal("rank name")
	}
	if (&BallScheme{FixedScale: 2, RankUniform: true}).Name() != "ball-fixed2-rank" {
		t.Fatal("combined name")
	}
}

func TestBallSchemeConcurrentDraws(t *testing.T) {
	g := gen.Grid2D(40, 40)
	inst, err := NewBallScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	bad := make(chan int32, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < 500; i++ {
				u := graph.NodeID(rng.Intn(g.N()))
				c := inst.Contact(u, rng)
				if c < 0 || int(c) >= g.N() {
					bad <- c
					return
				}
			}
		}(uint64(w) + 10)
	}
	wg.Wait()
	close(bad)
	if c, ok := <-bad; ok {
		t.Fatalf("concurrent draw produced invalid contact %d", c)
	}
}

func TestHarmonicSchemeFavoursCloseNodes(t *testing.T) {
	g := gen.Path(101)
	inst, err := NewHarmonicScheme(1).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	centre := graph.NodeID(50)
	distCounts := map[int]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		c := inst.Contact(centre, rng)
		d := int(math.Abs(float64(c - centre)))
		distCounts[d]++
	}
	if distCounts[0] != 0 {
		t.Fatal("harmonic scheme must never pick the node itself")
	}
	// P(dist=1) should be about 2x P(dist=2) (two nodes at each distance).
	r := float64(distCounts[1]) / float64(distCounts[2])
	if r < 1.6 || r > 2.5 {
		t.Fatalf("P(d=1)/P(d=2) = %v, want about 2", r)
	}
}

func TestHarmonicSchemeExponentZeroIsUniformOverOthers(t *testing.T) {
	g := gen.Complete(10)
	inst, err := NewHarmonicScheme(0).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	counts := make([]int, 10)
	const draws = 90000
	for i := 0; i < draws; i++ {
		counts[inst.Contact(0, rng)]++
	}
	if counts[0] != 0 {
		t.Fatal("self contact drawn")
	}
	for v := 1; v < 10; v++ {
		frac := float64(counts[v]) / draws
		if math.Abs(frac-1.0/9) > 0.01 {
			t.Fatalf("node %d frequency %v, want 1/9", v, frac)
		}
	}
}

func TestHarmonicSchemeRejectsNegativeExponent(t *testing.T) {
	if _, err := NewHarmonicScheme(-1).Prepare(gen.Path(5)); err == nil {
		t.Fatal("negative exponent accepted")
	}
}

// TestHarmonicTablesFitTheCodeSpace checks the table path's bound on n: a
// path of sampler.MaxClasses nodes still fits, and its end row, which holds
// every distance up to the last class, matches the float-weight build bit
// for bit; one node more is an error at Prepare rather than a panic at the
// first draw.
func TestHarmonicTablesFitTheCodeSpace(t *testing.T) {
	s := &HarmonicScheme{Exponent: 1, MaxPrecomputeNodes: sampler.MaxClasses + 1}
	inst, err := s.Prepare(gen.Path(sampler.MaxClasses))
	if err != nil {
		t.Fatalf("a %d-node path was refused: %v", sampler.MaxClasses, err)
	}
	h := inst.(*harmonicInstance)
	wantProb, wantAlias := rowReference(t, sampler.MaxClasses, 0, func(u graph.NodeID, w []float64) { harmonicWeightsReference(h, u, w) })
	prob, alias := rowTable(h.tables, 0)
	sameTable(t, "row 0", prob, alias, wantProb, wantAlias)
	if _, err := s.Prepare(gen.Path(sampler.MaxClasses + 1)); err == nil {
		t.Fatalf("a %d-node path was put on the table path", sampler.MaxClasses+1)
	}
}

func TestTheorem2SchemeOnPath(t *testing.T) {
	g := gen.Path(200)
	scheme := NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.OfPathGraph(g)
	})
	inst, err := scheme.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	// Contacts must be valid and the scheme should produce some long-range
	// (non-self, non-adjacent) contacts thanks to the uniform half.
	longRange := 0
	for i := 0; i < 5000; i++ {
		u := graph.NodeID(rng.Intn(200))
		c := inst.Contact(u, rng)
		if c < 0 || c >= 200 {
			t.Fatalf("contact %d out of range", c)
		}
		d := u - c
		if d < 0 {
			d = -d
		}
		if d > 1 {
			longRange++
		}
	}
	if longRange < 1000 {
		t.Fatalf("too few long-range contacts: %d/5000", longRange)
	}
}

func TestTheorem2SchemeAncestorTargetsBags(t *testing.T) {
	// With AncestorOnly, every non-self contact must carry an ancestor label
	// of the current node's label.
	g := gen.Path(64)
	pd, err := decomp.OfPathGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	scheme := &Theorem2Scheme{
		Decompose:    func(*graph.Graph) (*decomp.PathDecomposition, error) { return pd, nil },
		AncestorOnly: true,
	}
	inst, err := scheme.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ti := inst.(*theorem2Instance)
	rng := xrand.New(10)
	for i := 0; i < 5000; i++ {
		u := graph.NodeID(rng.Intn(64))
		c := inst.Contact(u, rng)
		if c == u {
			continue
		}
		// The contact's label must be an ancestor of u's label.
		ancFound := false
		for _, a := range ancestorsUpTo(ti.labels[u], ti.maxAncestor) {
			if ti.labels[c] == a {
				ancFound = true
				break
			}
		}
		if !ancFound {
			t.Fatalf("contact %d (label %d) is not an ancestor of node %d (label %d)",
				c, ti.labels[c], u, ti.labels[u])
		}
	}
}

func TestTheorem2SchemeDefaultDecomposition(t *testing.T) {
	// With a nil Decompose the scheme falls back to decomp.Best; it must
	// still produce a working instance on a small tree.
	g := gen.BalancedTree(2, 5)
	inst, err := NewTheorem2Scheme(nil).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.N()))
		c := inst.Contact(u, rng)
		if c < 0 || int(c) >= g.N() {
			t.Fatalf("contact %d out of range", c)
		}
	}
}

func TestTheorem2SchemeNames(t *testing.T) {
	if NewTheorem2Scheme(nil).Name() != "theorem2" {
		t.Fatal("default name")
	}
	if (&Theorem2Scheme{AncestorOnly: true}).Name() != "theorem2-ancestor-only" {
		t.Fatal("ablation name")
	}
	if (&Theorem2Scheme{SchemeName: "custom"}).Name() != "custom" {
		t.Fatal("custom name")
	}
}

func TestTheorem2SchemeErrorPropagation(t *testing.T) {
	g := gen.Cycle(10)
	scheme := NewTheorem2Scheme(func(*graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.OfPathGraph(g) // fails: cycle is not a path
	})
	if _, err := scheme.Prepare(g); err == nil {
		t.Fatal("decomposition error not propagated")
	}
}

func TestSampleAllCoversAllNodes(t *testing.T) {
	g := gen.Cycle(30)
	inst, err := NewBallScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	contacts := SampleAll(inst, g.N(), xrand.New(13))
	if len(contacts) != 30 {
		t.Fatal("length")
	}
	for u, c := range contacts {
		if c < 0 || int(c) >= 30 {
			t.Fatalf("contact of %d out of range: %d", u, c)
		}
	}
}

// The ball scheme's distribution must match the paper's formula
// φ_u(v) = (1/⌈log n⌉) Σ_{k ≥ r(v)} 1/|B_k(u)| where r(v) is the smallest k
// with v ∈ B(u, 2^k).  Verify empirically on a small path.
func TestBallSchemeMatchesFormula(t *testing.T) {
	n := 16
	g := gen.Path(n)
	inst, err := NewBallScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	u := graph.NodeID(5)
	logN := dist.CeilLog2(n) // 4
	// Analytic distribution.
	want := make([]float64, n)
	for k := 1; k <= logN; k++ {
		radius := int32(1) << uint(k)
		ball, _ := dist.NewBallBuffer(n).Ball(g, u, radius)
		for _, v := range ball {
			want[v] += 1.0 / (float64(logN) * float64(len(ball)))
		}
	}
	rng := xrand.New(14)
	counts := make([]int, n)
	const draws = 300000
	for i := 0; i < draws; i++ {
		counts[inst.Contact(u, rng)]++
	}
	for v := 0; v < n; v++ {
		got := float64(counts[v]) / draws
		if math.Abs(got-want[v]) > 0.01 {
			t.Fatalf("node %d: empirical %v vs analytic %v", v, got, want[v])
		}
	}
}
