package dist

import (
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// pinTestGraphs are the differential inventory for the pinned view: a
// path, a grid, a small power-law graph, and two components so that
// graph.Unreachable must survive pinning.
func pinTestGraphs() map[string]*graph.Graph {
	rng := xrand.New(0x9142)
	twoComp := graph.NewBuilder(40)
	for v := 1; v < 20; v++ {
		twoComp.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
		twoComp.AddEdge(graph.NodeID(20+rng.Intn(v)), graph.NodeID(20+v))
	}
	return map[string]*graph.Graph{
		"path":       pathGraph(60),
		"grid":       gridGraph(9, 11),
		"powerlaw":   powerLawGraph(300, 2, rng),
		"components": twoComp.Build(),
	}
}

// powerLawGraph is preferential attachment (each new node links to m
// endpoints of uniformly chosen existing edges), built locally like
// pathGraph and gridGraph.
func powerLawGraph(n, m int, rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	ends := []graph.NodeID{0, 1}
	b.AddEdge(0, 1)
	for v := 2; v < n; v++ {
		old := len(ends)
		for k := 0; k < m; k++ {
			u := ends[rng.Intn(old)]
			b.AddEdge(u, graph.NodeID(v))
			ends = append(ends, u, graph.NodeID(v))
		}
	}
	return b.Build()
}

// checkPinnedAgainstUnpinned pins every target in turn through one shared
// view and compares every pinned answer, plus one fall-through query to
// another target, with the unpinned oracle.
func checkPinnedAgainstUnpinned(t *testing.T, o *TwoHop) {
	t.Helper()
	var p TwoHopPin
	n := graph.NodeID(o.N())
	for tgt := graph.NodeID(0); tgt < n; tgt++ {
		p.Pin(o, tgt)
		for u := graph.NodeID(0); u < n; u++ {
			if got, want := p.Dist(u, tgt), o.Dist(u, tgt); got != want {
				t.Fatalf("pinned Dist(%d,%d) = %d, unpinned %d", u, tgt, got, want)
			}
		}
		other := (tgt + n/2) % n
		if got, want := p.Dist(tgt, other), o.Dist(tgt, other); got != want {
			t.Fatalf("fall-through Dist(%d,%d) with %d pinned = %d, unpinned %d", tgt, other, tgt, got, want)
		}
	}
}

func TestTwoHopPinMatchesUnpinned(t *testing.T) {
	for name, g := range pinTestGraphs() {
		for _, packed := range []bool{false, true} {
			o := NewTwoHopWith(g, TwoHopOptions{Workers: 2, Packed: packed})
			t.Run(name+map[bool]string{false: "/raw", true: "/packed"}[packed], func(t *testing.T) {
				checkPinnedAgainstUnpinned(t, o)
			})
		}
	}
}

// checkPinBuffer asserts the dense buffer holds exactly L_t: every other
// rank is the sentinel, so no earlier pin left anything behind.
func checkPinBuffer(t *testing.T, p *TwoHopPin, o *TwoHop, tgt graph.NodeID) {
	t.Helper()
	want := make([]int32, o.N())
	for i := range want {
		want[i] = twoHopPinAbsent
	}
	o.scatter(tgt, want, false)
	for h := range want {
		if p.dense[h] != want[h] {
			t.Fatalf("pinned %d: rank %d holds %d, want %d", tgt, h, p.dense[h], want[h])
		}
	}
}

// TestTwoHopPinRepinAfterAbandonedPin re-pins after a route that stopped
// half-way and after a scatter cut short: the next pin must clear every
// entry either one left.
func TestTwoHopPinRepinAfterAbandonedPin(t *testing.T) {
	g := pinTestGraphs()["powerlaw"]
	for _, packed := range []bool{false, true} {
		o := NewTwoHopWith(g, TwoHopOptions{Packed: packed})
		var p TwoHopPin
		// A route pinned to 0 and abandoned after one probe.
		p.Pin(o, 0)
		p.Dist(7, 0)
		p.Pin(o, 123)
		checkPinBuffer(t, &p, o, 123)

		// A pin of 200 recorded, then cut short after half its label.
		hubs, _ := o.Label(200)
		rank := make(map[graph.NodeID]int32, o.N())
		for r, v := range o.order {
			rank[v] = int32(r)
		}
		p.o.scatter(p.target, p.dense, true)
		p.o, p.target = o, 200
		_, ds := o.Label(200)
		for i := 0; i < len(hubs)/2; i++ {
			p.dense[rank[hubs[i]]] = ds[i]
		}
		p.Pin(o, 42)
		checkPinBuffer(t, &p, o, 42)
		for u := graph.NodeID(0); u < graph.NodeID(o.N()); u++ {
			if got, want := p.Dist(u, 42), o.Dist(u, 42); got != want {
				t.Fatalf("packed=%v: after abandoned pin Dist(%d,42) = %d, want %d", packed, u, got, want)
			}
		}
	}
}

// TestTwoHopPinAcrossOracles reuses one view across oracles of the same
// size (different graphs, and raw vs packed of one graph) and of another
// size: the buffer never answers with the previous oracle's entries.
func TestTwoHopPinAcrossOracles(t *testing.T) {
	rng := xrand.New(77)
	a := NewTwoHop(powerLawGraph(300, 2, rng))
	b := NewTwoHopWith(powerLawGraph(300, 3, rng), TwoHopOptions{Packed: true})
	c := NewTwoHop(gridGraph(10, 10))
	var p TwoHopPin
	for i, o := range []*TwoHop{a, b, a.Pack(), c, a} {
		tgt := graph.NodeID(i * 17 % o.N())
		p.Pin(o, tgt)
		checkPinBuffer(t, &p, o, tgt)
		for u := graph.NodeID(0); u < graph.NodeID(o.N()); u++ {
			if got, want := p.Dist(u, tgt), o.Dist(u, tgt); got != want {
				t.Fatalf("oracle %d: pinned Dist(%d,%d) = %d, unpinned %d", i, u, tgt, got, want)
			}
		}
	}
}
