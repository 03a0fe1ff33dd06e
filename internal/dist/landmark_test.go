package dist

import (
	"fmt"
	"slices"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// TestLandmarkExactAtLandmarks pins the tight half of the landmark
// guarantee: when one endpoint is a landmark l, the triangle bounds from l
// itself collapse — |d(l,l) − d(l,v)| = d(l,v) = d(l,l) + d(l,v) — so
// Bounds must return the exact distance on both sides, and Dist must be
// exact too.
func TestLandmarkExactAtLandmarks(t *testing.T) {
	for name, g := range twoHopTestGraphs() {
		if g.N() < 2 {
			continue
		}
		o := NewLandmarkOracle(g, 4, xrand.New(5))
		for _, l := range o.landmarks {
			d := g.BFS(l)
			for v := 0; v < g.N(); v++ {
				want := d[v]
				lower, upper := o.Bounds(l, graph.NodeID(v))
				if want == graph.Unreachable {
					if upper != graph.Unreachable {
						t.Fatalf("%s: landmark %d to unreachable %d got finite upper %d", name, l, v, upper)
					}
					continue
				}
				if lower != want || upper != want {
					t.Fatalf("%s: Bounds(%d,%d) = (%d,%d), want exact (%d,%d) at a landmark endpoint",
						name, l, v, lower, upper, want, want)
				}
				if got := o.Dist(l, graph.NodeID(v)); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %d, want exact %d at a landmark endpoint", name, l, v, got, want)
				}
			}
		}
	}
}

// TestLandmarkNeverUnderestimates is the safe half of the guarantee on
// whole graphs: Dist (the upper bound) is never below the true distance,
// and the lower bound never above it.
func TestLandmarkNeverUnderestimates(t *testing.T) {
	for name, g := range twoHopTestGraphs() {
		if g.N() < 2 {
			continue
		}
		for _, k := range []int{1, 3, 8} {
			o := NewLandmarkOracle(g, k, xrand.New(uint64(k)))
			for u := 0; u < g.N(); u++ {
				d := g.BFS(graph.NodeID(u))
				for v := 0; v < g.N(); v++ {
					lower, upper := o.Bounds(graph.NodeID(u), graph.NodeID(v))
					if d[v] == graph.Unreachable {
						if upper != graph.Unreachable {
							t.Fatalf("%s k=%d: unreachable pair (%d,%d) got finite upper %d", name, k, u, v, upper)
						}
						continue
					}
					if upper != graph.Unreachable && upper < d[v] {
						t.Fatalf("%s k=%d: upper bound %d below true distance %d for (%d,%d)", name, k, upper, d[v], u, v)
					}
					if lower > d[v] {
						t.Fatalf("%s k=%d: lower bound %d above true distance %d for (%d,%d)", name, k, lower, d[v], u, v)
					}
				}
			}
		}
	}
}

// referenceLandmarkOracle is the straightforward construction the
// renumbered build must reproduce: k BFS runs over the graph itself, rows
// in original id order, the farthest-point scan in id order with strict
// improvement (so ties go to the smallest id).
func referenceLandmarkOracle(g *graph.Graph, k int, rng *xrand.RNG) *LandmarkOracle {
	n := g.N()
	o := &LandmarkOracle{n: int32(n)}
	if n == 0 {
		return o
	}
	k = max(1, min(k, n))
	o.pos = make([]int32, n)
	for v := range o.pos {
		o.pos[v] = int32(v)
	}
	minDist := make([]int32, n)
	for i := range minDist {
		minDist[i] = infDist
	}
	next := graph.NodeID(rng.Intn(n))
	for len(o.landmarks) < k {
		o.landmarks = append(o.landmarks, next)
		row := g.BFS(next)
		o.rows = append(o.rows, row...)
		best := int32(-1)
		for v := 0; v < n; v++ {
			d := row[v]
			if d == graph.Unreachable {
				d = infDist
			}
			if d < minDist[v] {
				minDist[v] = d
			}
			if minDist[v] > best {
				best = minDist[v]
				next = graph.NodeID(v)
			}
		}
	}
	return o
}

// TestLandmarkMatchesReference is the differential check on the
// renumbered build: the same landmarks in the same order, and the same
// Bounds on every pair, as the reference construction, for k from one
// landmark to every node.
func TestLandmarkMatchesReference(t *testing.T) {
	graphs := twoHopTestGraphs()
	star := graph.NewBuilder(40)
	for v := 1; v < 40; v++ {
		star.AddEdge(int32((v+17)%40), 17)
	}
	graphs["star"] = star.Build()
	for name, g := range graphs {
		for _, k := range []int{1, 3, 16, g.N()} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				seed := uint64(len(name)*31 + k)
				want := referenceLandmarkOracle(g, k, xrand.New(seed))
				got := NewLandmarkOracle(g, k, xrand.New(seed))
				if !slices.Equal(got.landmarks, want.landmarks) {
					t.Fatalf("landmarks %v, reference %v", got.landmarks, want.landmarks)
				}
				for u := int32(0); u < int32(g.N()); u++ {
					for v := int32(0); v < int32(g.N()); v++ {
						gl, gu := got.Bounds(u, v)
						wl, wu := want.Bounds(u, v)
						if gl != wl || gu != wu {
							t.Fatalf("Bounds(%d,%d) = (%d,%d), reference (%d,%d)", u, v, gl, gu, wl, wu)
						}
					}
				}
			})
		}
	}
}
