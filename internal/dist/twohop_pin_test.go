package dist

import (
	"slices"
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

// TestTwoHopPinMatchesUnpinned runs the pinned view on every graph's
// labels as built ("packed") and as loaded from the legacy raw layout
// ("raw"): an old snapshot's labels must pin like fresh ones.
func TestTwoHopPinMatchesUnpinned(t *testing.T) {
	for name, g := range pinTestGraphs() {
		o := NewTwoHopWith(g, TwoHopOptions{Workers: 2})
		t.Run(name+"/packed", func(t *testing.T) { checkPinnedAgainstUnpinned(t, o) })
		t.Run(name+"/raw", func(t *testing.T) { checkPinnedAgainstUnpinned(t, twoHopFromLegacy(t, o)) })
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
	o := NewTwoHop(pinTestGraphs()["powerlaw"])
	var p TwoHopPin
	// A route pinned to 0 and abandoned after one probe.
	p.Pin(o, 0)
	p.Dist(7, 0)
	p.Pin(o, 123)
	checkPinBuffer(t, &p, o, 123)

	// A pin of 200 recorded, then cut short after half its label.
	hubs, ds := o.Label(200)
	rank := make(map[graph.NodeID]int32, o.N())
	for r, v := range o.order {
		rank[v] = int32(r)
	}
	p.o.scatter(p.target, p.dense, true)
	p.o, p.target = o, 200
	for i := 0; i < len(hubs)/2; i++ {
		p.dense[rank[hubs[i]]] = ds[i]
	}
	p.Pin(o, 42)
	checkPinBuffer(t, &p, o, 42)
	for u := graph.NodeID(0); u < graph.NodeID(o.N()); u++ {
		if got, want := p.Dist(u, 42), o.Dist(u, 42); got != want {
			t.Fatalf("after abandoned pin Dist(%d,42) = %d, want %d", u, got, want)
		}
	}
}

// TestTwoHopPinAcrossOracles reuses one view across oracles of the same
// size (different graphs, and a second oracle with the same labels) and
// of another size: the buffer never answers with the previous oracle's
// entries.
func TestTwoHopPinAcrossOracles(t *testing.T) {
	rng := xrand.New(77)
	a := NewTwoHop(powerLawGraph(300, 2, rng))
	b := NewTwoHop(powerLawGraph(300, 3, rng))
	c := NewTwoHop(gridGraph(10, 10))
	var p TwoHopPin
	for i, o := range []*TwoHop{a, b, twoHopFromLegacy(t, a), c, a} {
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

// TestTwoHopPinSampledWideDeltas is the pinned differential test on a
// graph past 2^14 nodes, where a label's rank deltas take one, two and
// three bytes: the widths the pinned probe and scatter decode inline.
// At 30,000 nodes some three-byte deltas pass 24,576, so every payload
// bit of their middle byte is read.
// All pairs would be too many, so it pins and probes a sample: random
// nodes, plus the first nodes whose labels hold a three-byte delta and
// every node whose label holds one of them as a hub.  Pinned, unpinned
// and Unpack() answers must equal the built oracle's unpinned ones, on
// the labels as built, as loaded from the legacy raw layout, and with
// the hub order reversed.  As built, a three-byte delta is a late hub's
// step to its own entry (u, 0), the last of u's label, which no answer
// but dist(u, u) reads, so a misdecoded one would go unseen.  Reversing
// the order keeps every label set but puts that entry first and the
// three-byte step before the early hubs' entries, which decide answers.
// Each variant's sample must hold deltas of every inline width, so the
// case cannot lose its coverage silently.
func TestTwoHopPinSampledWideDeltas(t *testing.T) {
	for _, tc := range []struct {
		name        string
		g           *graph.Graph
		random, far int
	}{
		{"powerlaw-30000", powerLawGraph(30000, 2, xrand.New(0x2b1)), 200, 60},
	} {
		o := NewTwoHopWith(tc.g, TwoHopOptions{Workers: 2})
		nodes := wideDeltaSample(o, tc.random, tc.far)
		for _, v := range []struct {
			name string
			o    *TwoHop
		}{
			{"packed", o},
			{"raw", twoHopFromLegacy(t, o)},
			{"reversed", twoHopReversed(t, o)},
		} {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) { checkPinnedSampled(t, o, v.o, nodes) })
		}
	}
}

// twoHopReversed rebuilds o's labels under the reversed hub order: rank
// r becomes n-1-r, so each label's entries come in the opposite order.
// Every label set, and so every answer, is o's.
func twoHopReversed(t *testing.T, o *TwoHop) *TwoHop {
	t.Helper()
	order, index, hubs, dists := twoHopLegacyArrays(o)
	n := int32(o.N())
	order = slices.Clone(order)
	slices.Reverse(order)
	hubs, dists = slices.Clone(hubs), slices.Clone(dists)
	for v := 0; v < o.N(); v++ {
		lo, hi := index[v], index[v+1]
		for i := lo; i < hi; i++ {
			hubs[i] = n - 1 - hubs[i]
		}
		slices.Reverse(hubs[lo:hi])
		slices.Reverse(dists[lo:hi])
	}
	r, err := TwoHopFromRaw(o.N(), order, index, hubs, dists)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// wideDeltaSample returns random nodes of o, then every node whose label
// holds as a hub one of the first far nodes with a rank delta of three
// or more bytes in their own labels.
func wideDeltaSample(o *TwoHop, random, far int) []graph.NodeID {
	rng := xrand.New(0x51d)
	var nodes []graph.NodeID
	for range random {
		nodes = append(nodes, graph.NodeID(rng.Intn(o.N())))
	}
	wide := make(map[graph.NodeID]bool, far)
	for v := graph.NodeID(0); int(v) < o.N() && len(wide) < far; v++ {
		if twoHopVarintWidths(o.blob[o.poff[v]:o.poff[v+1]])[0][3] > 0 {
			wide[v] = true
		}
	}
	for v := graph.NodeID(0); int(v) < o.N(); v++ {
		hubs, _ := o.Label(v)
		if slices.ContainsFunc(hubs, func(h graph.NodeID) bool { return wide[h] }) {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// checkPinnedSampled pins each sampled node in turn through one shared
// view of o and probes it from every sampled node, after checking that
// the sampled labels hold rank deltas of one, two and three bytes.  Every
// answer must be ref's unpinned one.
func checkPinnedSampled(t *testing.T, ref, o *TwoHop, nodes []graph.NodeID) {
	t.Helper()
	var widths [4]int
	for _, v := range nodes {
		w := twoHopVarintWidths(o.blob[o.poff[v]:o.poff[v+1]])
		for b := range widths {
			widths[b] += w[0][b]
		}
	}
	if widths[1] == 0 || widths[2] == 0 || widths[3] == 0 {
		t.Fatalf("sampled rank deltas of 1/2/3+ bytes: %d/%d/%d, want all present", widths[1], widths[2], widths[3])
	}
	raw := o.Unpack()
	var p TwoHopPin
	for _, tgt := range nodes {
		p.Pin(o, tgt)
		for _, u := range nodes {
			want := ref.Dist(u, tgt)
			if got := raw.Dist(u, tgt); got != want {
				t.Fatalf("Unpack Dist(%d,%d) = %d, want %d", u, tgt, got, want)
			}
			if got := o.Dist(u, tgt); got != want {
				t.Fatalf("unpinned Dist(%d,%d) = %d, want %d", u, tgt, got, want)
			}
			if got := p.Dist(u, tgt); got != want {
				t.Fatalf("pinned Dist(%d,%d) = %d, want %d", u, tgt, got, want)
			}
		}
	}
}
