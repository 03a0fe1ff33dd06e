package dist

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// twoHopBoundaryGraphs sizes graphs so their node counts straddle the
// geometric batch schedule's commit boundaries (cumulative hub counts 63,
// 127, 191, ...): off-by-one bugs in the bit-parallel batch engine live
// exactly where a batch is truncated or exactly full.
func twoHopBoundaryGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"cycle-63":  cycleGraph(63),
		"cycle-64":  cycleGraph(64),
		"cycle-65":  cycleGraph(65),
		"cycle-127": cycleGraph(127),
		"cycle-128": cycleGraph(128),
		"cycle-129": cycleGraph(129),
		"grid-8x16": gridGraph(8, 16),
		"rtree-191": randomTreeLike(191, 5),
	}
}

// twoHopLegacyArrays decodes o's labels into the legacy uncompressed
// layout TwoHopFromRaw reads: the hub order and a CSR index over parallel
// hub-rank and distance arrays.
func twoHopLegacyArrays(o *TwoHop) (order []graph.NodeID, index []int64, hubs, dists []int32) {
	r := o.Unpack().(*twoHopRaw)
	return o.order, r.index, r.hubs, r.dists
}

// twoHopFromLegacy reloads o through the legacy-layout converter, as a
// snapshot with a raw 2-hop section is loaded.
func twoHopFromLegacy(t testing.TB, o *TwoHop) *TwoHop {
	t.Helper()
	order, index, hubs, dists := twoHopLegacyArrays(o)
	l, err := TwoHopFromRaw(o.N(), order, index, hubs, dists)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// twoHopRequireEqual fails unless the two oracles hold byte-identical
// label sets (entry by entry, node by node).
func twoHopRequireEqual(t *testing.T, name string, want, got *TwoHop) {
	t.Helper()
	if want.entries != got.entries {
		t.Fatalf("%s: entry totals differ: %d vs %d", name, got.entries, want.entries)
	}
	for v := 0; v < want.N(); v++ {
		wh, wd := want.Label(graph.NodeID(v))
		gh, gd := got.Label(graph.NodeID(v))
		if len(wh) != len(gh) {
			t.Fatalf("%s: node %d label size %d, want %d", name, v, len(gh), len(wh))
		}
		for i := range wh {
			if wh[i] != gh[i] || wd[i] != gd[i] {
				t.Fatalf("%s: node %d entry %d differs: (%d,%d), want (%d,%d)",
					name, v, i, gh[i], gd[i], wh[i], wd[i])
			}
		}
	}
}

// TestTwoHopEngineByteIdentity is the engine-equivalence contract: the
// 8-bit-lane and scalar batch engines must commit identical labels, so the
// (depth-driven) engine switch point can never change what a build
// produces.
func TestTwoHopEngineByteIdentity(t *testing.T) {
	graphs := twoHopTestGraphs()
	for name, g := range twoHopBoundaryGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		base := NewTwoHopWith(g, TwoHopOptions{Workers: 1})
		scalar := NewTwoHopWith(g, TwoHopOptions{Workers: 1, forceScalar: true})
		twoHopRequireEqual(t, name+"/scalar", base, scalar)
	}
}

// TestTwoHopDepthFallback forces the mid-batch engine bailout: a path of
// 200 nodes exceeds the 8-bit lane depth cap (126) partway through a
// traversal, driving the build through the fallback seam.  Labels must
// match the forced-scalar build exactly.  The 40000-node path is kept for
// its labels, which carry 1-, 2- and 3-byte rank deltas and distances (no
// other test reaches 3-byte varints), and for a long scalar-engine build:
// its distances must match the path metric.
func TestTwoHopDepthFallback(t *testing.T) {
	g := pathGraph(200)
	twoHopRequireEqual(t, "path-200",
		NewTwoHopWith(g, TwoHopOptions{Workers: 1, forceScalar: true}),
		NewTwoHopWith(g, TwoHopOptions{Workers: 3}))

	deep := pathGraph(40000)
	o := NewTwoHopWith(deep, TwoHopOptions{Workers: 2})
	for _, pair := range [][2]int32{{0, 39999}, {0, 1}, {123, 16000}, {8500, 8500}, {2000, 38000}} {
		want := pair[1] - pair[0]
		if got := o.Dist(graph.NodeID(pair[0]), graph.NodeID(pair[1])); got != want {
			t.Fatalf("deep path: Dist(%d,%d) = %d, want %d", pair[0], pair[1], got, want)
		}
	}
	checkPackedSlowPaths(t, o)
}

// TestTwoHopPackedMatchesRaw pins the label streams to the uncompressed
// layout both ways.  Converting the labels to the legacy raw arrays and
// back (TwoHopFromRaw, the old-snapshot load path) reproduces the build
// byte for byte, with the same statistics.  Every distance equals the
// Unpack reference's plain merge.  And the streams are smaller than the
// raw section those entries would need.
func TestTwoHopPackedMatchesRaw(t *testing.T) {
	graphs := twoHopTestGraphs()
	for name, g := range twoHopBoundaryGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		o := NewTwoHopWith(g, TwoHopOptions{Workers: 3})
		l := twoHopFromLegacy(t, o)
		twoHopRequireEqual(t, name+"/legacy", o, l)
		if o.entries != l.entries || o.MaxLabel() != l.MaxLabel() ||
			math.Abs(o.AvgLabel()-l.AvgLabel()) > 1e-12 {
			t.Fatalf("%s: label statistics differ after the legacy round trip", name)
		}
		oo, op, ob := o.RawPacked()
		lo, lp, lb := l.RawPacked()
		if !bytes.Equal(ob, lb) || !slices.Equal(op, lp) || !slices.Equal(oo, lo) {
			t.Fatalf("%s: legacy round trip changed the packed arrays", name)
		}
		ref := o.Unpack()
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a, b := o.Dist(graph.NodeID(u), graph.NodeID(v)), ref.Dist(graph.NodeID(u), graph.NodeID(v)); a != b {
					t.Fatalf("%s: Dist(%d,%d) = %d, reference %d", name, u, v, a, b)
				}
			}
		}
		if raw := 4*int64(n) + 8*int64(n+1) + 8*o.entries; n > 8 && o.MemoryBytes() >= raw {
			t.Fatalf("%s: packed oracle (%d B) not smaller than raw labels (%d B)", name, o.MemoryBytes(), raw)
		}
	}
}

// TestTwoHopPackedDeterministicAcrossWorkers extends the worker-identity
// contract to the batch-boundary sizes:
// the varint blob itself — not just the decoded labels — must be the same
// bytes at every worker count.
func TestTwoHopPackedDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range twoHopBoundaryGraphs() {
		_, bp, bb := NewTwoHopWith(g, TwoHopOptions{Workers: 1}).RawPacked()
		for _, workers := range []int{2, 3, 8, 64} {
			_, op, ob := NewTwoHopWith(g, TwoHopOptions{Workers: workers}).RawPacked()
			if !bytes.Equal(bb, ob) {
				t.Fatalf("%s: packed blob differs at %d workers", name, workers)
			}
			for i := range bp {
				if bp[i] != op[i] {
					t.Fatalf("%s: poff[%d] differs at %d workers", name, i, workers)
				}
			}
		}
	}
}

// TestTwoHopFromRawHostileDistance is the regression test for the hostile
// label overflow: a serialised label claiming a distance near MaxInt32
// used to be accepted, and two such entries at a shared hub summed past
// int32 in Dist, returning a negative "exact" distance.  FromRaw must
// bound every distance to [0, n).
func TestTwoHopFromRawHostileDistance(t *testing.T) {
	g := pathGraph(8)
	order, index, hubs, dists := twoHopLegacyArrays(NewTwoHopWith(g, TwoHopOptions{Workers: 1}))
	n := g.N()

	clone := func() []int32 { return append([]int32(nil), dists...) }
	// The unmodified arrays must round-trip.
	rt, err := TwoHopFromRaw(n, order, index, hubs, clone())
	if err != nil {
		t.Fatalf("valid arrays rejected: %v", err)
	}
	if got := rt.Dist(0, 7); got != 7 {
		t.Fatalf("round-tripped Dist(0,7) = %d, want 7", got)
	}
	for _, hostile := range []int32{math.MaxInt32, math.MaxInt32 - 1, int32(n), -1} {
		d := clone()
		d[0] = hostile
		if len(d) > 1 {
			d[1] = hostile // two entries: the pair that would overflow a Dist sum
		}
		if _, err := TwoHopFromRaw(n, order, index, hubs, d); err == nil {
			t.Fatalf("FromRaw accepted hostile label distance %d (n = %d)", hostile, n)
		}
	}
	// The largest legal distance must still be accepted (structure aside,
	// the bound is exactly [0, n)): dist n-1 on a self-consistent index.
	d := clone()
	for i := range d {
		if d[i] > int32(n-1) {
			t.Fatalf("build produced out-of-bound distance %d", d[i])
		}
	}
}

// TestTwoHopPackedFromRawHostile feeds TwoHopPackedFromRaw corrupt and
// hostile payloads: every one must be rejected before any query can walk
// the blob out of bounds or overflow.
func TestTwoHopPackedFromRawHostile(t *testing.T) {
	g := gridGraph(5, 5)
	order, poff, blob := NewTwoHopWith(g, TwoHopOptions{Workers: 1}).RawPacked()
	n := g.N()
	cloneOff := func() []int64 { return append([]int64(nil), poff...) }
	cloneBlob := func() []byte { return append([]byte(nil), blob...) }

	if _, err := TwoHopPackedFromRaw(n, order, cloneOff(), cloneBlob()); err != nil {
		t.Fatalf("valid packed arrays rejected: %v", err)
	}
	if _, err := TwoHopPackedFromRaw(n, order, cloneOff(), cloneBlob()[:len(blob)-1]); err == nil {
		t.Fatal("accepted a blob shorter than the index promises")
	}
	trunc := cloneBlob()
	trunc[len(trunc)-1] |= 0x80 // last byte now claims a continuation that never comes
	if _, err := TwoHopPackedFromRaw(n, order, cloneOff(), trunc); err == nil {
		t.Fatal("accepted a truncated varint")
	}
	bad := cloneOff()
	bad[0] = 1
	if _, err := TwoHopPackedFromRaw(n, order, bad, cloneBlob()); err == nil {
		t.Fatal("accepted poff[0] != 0")
	}
	bad = cloneOff()
	bad[1], bad[2] = bad[2], bad[1] // guaranteed non-monotone if unequal
	if bad[1] != bad[2] {
		if _, err := TwoHopPackedFromRaw(n, order, bad, cloneBlob()); err == nil {
			t.Fatal("accepted a decreasing packed index")
		}
	}

	// Hand-built tiny payloads (single-byte varints) for the semantic
	// checks: hub rank past n, distance past n-1, over-long varint.
	tiny := []graph.NodeID{0, 1}
	if _, err := TwoHopPackedFromRaw(2, tiny, []int64{0, 2, 2}, []byte{5, 0}); err == nil {
		t.Fatal("accepted hub rank 5 in a 2-node oracle")
	}
	if _, err := TwoHopPackedFromRaw(2, tiny, []int64{0, 2, 2}, []byte{0, 3}); err == nil {
		t.Fatal("accepted label distance 3 in a 2-node oracle")
	}
	if _, err := TwoHopPackedFromRaw(2, tiny, []int64{0, 7, 7},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}); err == nil {
		t.Fatal("accepted a varint exceeding 31 bits")
	}
	// An early offset past the blob, with the index decreasing only
	// afterwards, must be rejected as non-monotone, not read out of range.
	if _, err := TwoHopPackedFromRaw(2, tiny, []int64{0, 100, 4}, []byte{0, 0, 0, 0}); err == nil {
		t.Fatal("accepted a packed index that overshoots the blob")
	}
	if _, err := TwoHopFromRaw(2, tiny, []int64{0, 100, 2}, []int32{0, 1}, []int32{0, 0}); err == nil {
		t.Fatal("accepted a label index that overshoots the arrays")
	}
	// Empty oracle: zero-length streams are fine.
	if o, err := TwoHopPackedFromRaw(1, []graph.NodeID{0}, []int64{0, 0}, nil); err != nil || o.entries != 0 {
		t.Fatalf("rejected an empty packed oracle: %v", err)
	}
}

// checkPackedSlowPaths checks a path oracle whose labels need multi-byte
// varints on sampled nodes and pairs: Label, unpinned Dist and pinned Dist
// across re-pins all go through the out-of-line decode for the long
// varints, and must give the path metric.  It first checks the blob really
// holds 1-, 2- and 3-byte rank deltas and distances, so every slow path
// runs.
func checkPackedSlowPaths(t *testing.T, o *TwoHop) {
	t.Helper()
	_, _, blob := o.RawPacked()
	var widths [2][4]int // [delta, dist][bytes]
	for i, k := int64(0), 0; i < int64(len(blob)); k++ {
		_, next := twoHopUvarint(blob, i)
		widths[k%2][min(next-i, 3)]++
		i = next
	}
	for k, name := range []string{"rank delta", "distance"} {
		if w := widths[k]; w[1] == 0 || w[2] == 0 || w[3] == 0 {
			t.Fatalf("%s varints of 1/2/3+ bytes: %d/%d/%d, want all present", name, w[1], w[2], w[3])
		}
	}
	pathDist := func(u, v graph.NodeID) int32 { return max(u-v, v-u) }
	n := o.N()
	rng := xrand.New(0x17)
	var pin TwoHopPin
	for k := 0; k < 40; k++ {
		tgt := graph.NodeID(rng.Intn(n))
		hubs, dists := o.Label(tgt)
		for i, h := range hubs {
			if want := pathDist(h, tgt); dists[i] != want {
				t.Fatalf("node %d entry %d: hub %d at distance %d, want %d", tgt, i, h, dists[i], want)
			}
		}
		pin.Pin(o, tgt)
		for j := 0; j < 25; j++ {
			u := graph.NodeID(rng.Intn(n))
			want := pathDist(u, tgt)
			if got := o.Dist(u, tgt); got != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", u, tgt, got, want)
			}
			if got := pin.Dist(u, tgt); got != want {
				t.Fatalf("pinned Dist(%d,%d) = %d, want %d", u, tgt, got, want)
			}
		}
	}
}
