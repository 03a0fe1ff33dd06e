package augment

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// ballWeightsReference is the float-weight fill the ball rows were built
// from before class codes: one enumeration of the largest ball, each member
// weighted by the suffix sum of its smallest admissible scale, scattered
// over a zeroed row.
func ballWeightsReference(b *ballInstance, u graph.NodeID, weights []float64) {
	for i := range weights {
		weights[i] = 0
	}
	loK, hiK := 1, b.maxScale
	if b.fixed > 0 {
		loK, hiK = b.fixed, b.fixed
	}
	pScale := 1.0 / float64(hiK-loK+1)
	nodes, dists := dist.NewBallBuffer(b.g.N()).Ball(b.g, u, b.scaleRadius(hiK))
	suffix := make([]float64, hiK-loK+2)
	sizes := make([]int, hiK-loK+1)
	end := 0
	for k := loK; k <= hiK; k++ {
		radius := b.scaleRadius(k)
		for end < len(dists) && dists[end] <= radius {
			end++
		}
		sizes[k-loK] = end
	}
	for k := hiK; k >= loK; k-- {
		suffix[k-loK] = suffix[k-loK+1] + pScale/float64(sizes[k-loK])
	}
	k := loK
	for i, v := range nodes {
		for dists[i] > b.scaleRadius(k) {
			k++
		}
		weights[v] = suffix[k-loK]
	}
}

// harmonicWeightsReference is the harmonic float-weight fill: the
// per-draw fallback's BFS weights dist(u,·)^-r.
func harmonicWeightsReference(h *harmonicInstance, u graph.NodeID, weights []float64) {
	n := h.g.N()
	h.fillWeights(u, &harmonicScratch{dist: make([]int32, n), queue: make([]int32, 0, n)}, weights)
}

// rowReference builds row u the way LazyRows did from float weights: fill
// the row, park an all-zero row's mass on u, and run BuildInto.
func rowReference(t *testing.T, n int, u graph.NodeID, fill func(graph.NodeID, []float64)) ([]float64, []int32) {
	t.Helper()
	weights := make([]float64, n)
	fill(u, weights)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		weights[u] = 1
	}
	prob, alias := make([]float64, n), make([]int32, n)
	if err := sampler.BuildInto(prob, alias, weights, make([]int32, n)); err != nil {
		t.Fatal(err)
	}
	return prob, alias
}

// aliasTable reads a table's (prob, alias) columns.
func aliasTable(a *sampler.Alias) ([]float64, []int32) {
	v := reflect.ValueOf(a).Elem()
	pv, av := v.FieldByName("prob"), v.FieldByName("alias")
	prob, alias := make([]float64, pv.Len()), make([]int32, av.Len())
	for i := range prob {
		prob[i] = pv.Index(i).Float()
		alias[i] = int32(av.Index(i).Int())
	}
	return prob, alias
}

// sameTable fails unless two tables agree bit for bit.
func sameTable(t *testing.T, what string, prob []float64, alias []int32, wantProb []float64, wantAlias []int32) {
	t.Helper()
	for i := range wantProb {
		if math.Float64bits(prob[i]) != math.Float64bits(wantProb[i]) || alias[i] != wantAlias[i] {
			t.Fatalf("%s outcome %d: (prob %v, alias %d), want (%v, %d)", what, i, prob[i], alias[i], wantProb[i], wantAlias[i])
		}
	}
}

// rowGraphs are the graphs the class-coded rows are pinned on.  The last
// two are disconnected: their rows have zero-weight classes, and the
// isolated node's harmonic row has no outcome at all.
func rowGraphs() []*graph.Graph {
	rng := xrand.New(17)
	twoParts := graph.NewBuilder(30)
	for i := 1; i < 29; i++ {
		if i != 12 {
			twoParts.AddEdge(int32(i-1), int32(i))
		}
	}
	return []*graph.Graph{
		gen.Path(37),
		gen.Cycle(50),
		gen.Grid2D(7, 9),
		gen.RandomTree(80, rng),
		gen.GNP(90, 0.04, rng),
		twoParts.SetName("two-parts+isolated").Build(),
	}
}

// TestClassRowsMatchFloatWeights pins the class-coded row build against
// the float-weight build it replaced: every row's prob bits and alias
// entries, for the ball scheme (all scales, and the FixedScale ablation at
// the smallest and largest scale) and the harmonic scheme at exponents 1
// and 2.  The ball's ContactDistribution, now read from the classes, must
// equal the float weights too.
func TestClassRowsMatchFloatWeights(t *testing.T) {
	for _, g := range rowGraphs() {
		n := g.N()
		maxScale := dist.CeilLog2(n)
		for _, s := range []Scheme{
			NewBallScheme(),
			&BallScheme{FixedScale: 1},
			&BallScheme{FixedScale: maxScale},
			NewHarmonicScheme(1),
			NewHarmonicScheme(2),
		} {
			t.Run(fmt.Sprintf("%s/%s", g, s.Name()), func(t *testing.T) {
				inst, err := s.Prepare(g)
				if err != nil {
					t.Fatal(err)
				}
				var fill func(graph.NodeID, []float64)
				switch in := inst.(type) {
				case *ballInstance:
					fill = func(u graph.NodeID, w []float64) { ballWeightsReference(in, u, w) }
				case *harmonicInstance:
					fill = func(u graph.NodeID, w []float64) { harmonicWeightsReference(in, u, w) }
				}
				for u := graph.NodeID(0); int(u) < n; u++ {
					wantProb, wantAlias := rowReference(t, n, u, fill)
					prob, alias := aliasTable(lazyRows(inst).Row(u))
					sameTable(t, fmt.Sprintf("row %d", u), prob, alias, wantProb, wantAlias)
				}
				b, ok := inst.(*ballInstance)
				if !ok {
					return
				}
				want := make([]float64, n)
				for u := graph.NodeID(0); int(u) < n; u++ {
					fill(u, want)
					for v, p := range b.ContactDistribution(u) {
						if math.Float64bits(p) != math.Float64bits(want[v]) {
							t.Fatalf("φ_%d(%d) = %v, float weights say %v", u, v, p, want[v])
						}
					}
				}
			})
		}
	}
}

// TestConcurrentFirstDrawsMatchSerialBuild has many goroutines first-draw
// overlapping rows of one ball and one harmonic instance at once; every row
// must equal the one a fresh instance builds serially, bit for bit.  Row
// builds share pooled scratch, so a class table that aliased it would show
// here as a row built from another row's classes.
func TestConcurrentFirstDrawsMatchSerialBuild(t *testing.T) {
	g := gen.Grid2D(12, 20)
	n := g.N()
	for _, s := range []Scheme{NewBallScheme(), NewHarmonicScheme(2)} {
		t.Run(s.Name(), func(t *testing.T) {
			concurrent, err := s.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := s.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := xrand.New(uint64(w))
					<-start
					// Each goroutine walks every row from its own offset, so
					// first draws of one row race across goroutines.
					for i := 0; i < n; i++ {
						concurrent.Contact(graph.NodeID((i+w*n/8)%n), rng)
					}
				}()
			}
			close(start)
			wg.Wait()
			for u := graph.NodeID(0); int(u) < n; u++ {
				prob, alias := aliasTable(lazyRows(concurrent).Row(u))
				wantProb, wantAlias := aliasTable(lazyRows(serial).Row(u))
				sameTable(t, fmt.Sprintf("row %d", u), prob, alias, wantProb, wantAlias)
			}
		})
	}
}

// lazyRows returns the per-node tables of a ball or harmonic instance.
func lazyRows(inst Instance) *sampler.LazyRows {
	switch in := inst.(type) {
	case *ballInstance:
		return in.tables
	case *harmonicInstance:
		return in.tables
	}
	return nil
}
