package dist

import (
	"fmt"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// checkDistBatch answers pairs with DistBatch, out of a buffer longer
// than the batch and filled with junk, and requires every answer to be
// Dist's and the BFS distance, and the buffer past the batch untouched.
// It returns how many pairs are unreachable.
func checkDistBatch(t *testing.T, g *graph.Graph, o *TwoHop, pairs [][2]int32) (unreachable int) {
	t.Helper()
	const junk = -7
	out := make([]int32, len(pairs)+1)
	for k := range out {
		out[k] = junk
	}
	o.DistBatch(pairs, out)
	if out[len(pairs)] != junk {
		t.Fatalf("DistBatch wrote past its %d pairs", len(pairs))
	}
	fields := make(map[int32][]int32)
	for k, p := range pairs {
		f, ok := fields[p[0]]
		if !ok {
			f = g.BFS(p[0])
			fields[p[0]] = f
		}
		want := f[p[1]]
		if got := o.Dist(p[0], p[1]); got != want {
			t.Fatalf("Dist(%d,%d) = %d, BFS says %d", p[0], p[1], got, want)
		}
		if out[k] != want {
			t.Fatalf("pair %d of %d: DistBatch(%d,%d) = %d, BFS says %d", k, len(pairs), p[0], p[1], out[k], want)
		}
		if want == graph.Unreachable {
			unreachable++
		}
	}
	return unreachable
}

// twoHopDeltaWidths sums the rank-delta widths (1, 2 and 3+ bytes) of the
// labels of every pair's endpoints.
func twoHopDeltaWidths(o *TwoHop, pairs [][2]int32) (w [4]int) {
	for _, p := range pairs {
		for _, v := range p {
			vw := twoHopVarintWidths(o.blob[o.poff[v]:o.poff[v+1]])
			for b := range w {
				w[b] += vw[0][b]
			}
		}
	}
	return w
}

// TestTwoHopDistBatchMatchesDist checks DistBatch against Dist and BFS at
// batch lengths around the staging group.  The power-law tree (above
// 2^14 nodes, so rank deltas take three bytes) draws endpoints half at
// random and half from the nodes whose labels hold a three-byte delta;
// its "reversed" variant rebuilds the labels under the reversed hub order
// (twoHopReversed), which moves a late hub's three-byte step to its own
// entry from the end of its label, where no answer but dist(u, u) reads
// it, to the front.  Both must show two- and three-byte deltas in the
// labels their pairs read.  The two-component graph gives Unreachable
// pairs, and every seventh pair of every case is a (u, u) pair.
func TestTwoHopDistBatchMatchesDist(t *testing.T) {
	tree := powerLawGraph(30000, 1, xrand.New(0x7ee))
	treeO := NewTwoHopWith(tree, TwoHopOptions{Workers: 2})
	comps := pinTestGraphs()["components"]
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		o    *TwoHop
		// wide: the pairs' labels must hold 2- and 3-byte deltas;
		// split: some pairs must be unreachable.
		wide, split bool
	}{
		{"powerlaw-tree", tree, treeO, true, false},
		{"powerlaw-tree-reversed", tree, twoHopReversed(t, treeO), true, false},
		{"components", comps, NewTwoHop(comps), false, true},
	} {
		var wide []int32 // nodes whose own label holds a 3-byte delta
		for v := range int32(tc.o.N()) {
			if twoHopVarintWidths(tc.o.blob[tc.o.poff[v]:tc.o.poff[v+1]])[0][3] > 0 {
				wide = append(wide, v)
			}
		}
		if tc.wide && len(wide) == 0 {
			t.Fatalf("%s: no label holds a three-byte rank delta", tc.name)
		}
		rng := xrand.New(0xba7c)
		node := func() int32 {
			if len(wide) > 0 && rng.Intn(2) == 0 {
				return wide[rng.Intn(len(wide))]
			}
			return int32(rng.Intn(tc.o.N()))
		}
		for _, size := range []int{0, 1, twoHopGroup - 1, twoHopGroup, twoHopGroup + 1, 256} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, size), func(t *testing.T) {
				pairs := make([][2]int32, size)
				for k := range pairs {
					pairs[k] = [2]int32{node(), node()}
					if k%7 == 3 {
						pairs[k][1] = pairs[k][0]
					}
				}
				if tc.wide && size >= twoHopGroup {
					if w := twoHopDeltaWidths(tc.o, pairs); w[2] == 0 || w[3] == 0 {
						t.Fatalf("rank deltas of 1/2/3+ bytes in the pairs' labels: %d/%d/%d, want 2 and 3 present", w[1], w[2], w[3])
					}
				}
				if u := checkDistBatch(t, tc.g, tc.o, pairs); tc.split && size >= twoHopGroup && u == 0 {
					t.Fatalf("no pair of %d is unreachable", size)
				}
			})
		}
	}
}

// FuzzTwoHopDistBatch builds a graph of up to 48 nodes from the edge bytes
// and a batch of up to 300 pairs from the pair bytes, and requires
// DistBatch == Dist == BFS on every pair.
func FuzzTwoHopDistBatch(f *testing.F) {
	// Two components and an isolated node; pairs across them, repeated
	// pairs and self pairs.
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 3, 4, 5}, []byte{0, 3, 0, 4, 3, 5, 6, 0, 6, 6, 2, 2, 0, 3, 0, 3, 5, 4})
	// A path: every pair repeated, over more than one staging group.
	var path, pairs []byte
	for v := range byte(30) {
		path = append(path, v, v+1)
	}
	for k := range byte(90) {
		pairs = append(pairs, k%31, (k*7)%31)
	}
	f.Add(uint8(31), path, pairs)
	f.Add(uint8(1), []byte{}, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rawN uint8, edges, rawPairs []byte) {
		n := int(rawN)%48 + 1
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			if u, v := graph.NodeID(int(edges[i])%n), graph.NodeID(int(edges[i+1])%n); u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		var pairs [][2]int32
		for i := 0; i+1 < len(rawPairs) && len(pairs) < 300; i += 2 {
			pairs = append(pairs, [2]int32{int32(int(rawPairs[i]) % n), int32(int(rawPairs[i+1]) % n)})
		}
		checkDistBatch(t, g, NewTwoHopWith(g, TwoHopOptions{Workers: 1}), pairs)
	})
}
