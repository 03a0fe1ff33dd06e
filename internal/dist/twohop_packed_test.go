package dist

import (
	"bytes"
	"math"
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

// twoHopRequireEqual fails unless the two oracles hold byte-identical
// label sets (entry by entry, node by node).
func twoHopRequireEqual(t *testing.T, name string, want, got *TwoHop) {
	t.Helper()
	if want.Entries() != got.Entries() {
		t.Fatalf("%s: entry totals differ: %d vs %d", name, got.Entries(), want.Entries())
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
// 8-bit-lane, 16-bit-lane and scalar batch engines must commit identical
// labels, so the (depth-driven) engine switch points can never change what
// a build produces.
func TestTwoHopEngineByteIdentity(t *testing.T) {
	graphs := twoHopTestGraphs()
	for name, g := range twoHopBoundaryGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		base := NewTwoHopWith(g, TwoHopOptions{Workers: 1})
		scalar := NewTwoHopWith(g, TwoHopOptions{Workers: 1, forceScalar: true})
		wide := NewTwoHopWith(g, TwoHopOptions{Workers: 1, force16: true})
		twoHopRequireEqual(t, name+"/scalar", base, scalar)
		twoHopRequireEqual(t, name+"/16-bit", base, wide)
	}
}

// TestTwoHopDepthFallback forces the mid-batch engine bailouts: a path of
// 200 nodes exceeds the 8-bit lane depth cap (126) partway through a
// traversal, and one of 17000 nodes exceeds the 16-bit cap (16382) too,
// driving the build through every fallback seam.  Labels must match the
// scalar engine exactly, and distances must match the path metric.  The
// deep path is built packed too: its labels carry 1-, 2- and 3-byte rank
// deltas and distances, which no other packed-vs-raw test reaches.
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
	checkPackedSlowPaths(t, o, NewTwoHopWith(deep, TwoHopOptions{Workers: 2, Packed: true}))
}

// TestTwoHopPackedMatchesRaw pins the compressed representation to the raw
// one: same label sets, same distances, same statistics, and the
// Pack/Unpack round trips are exact in both directions.
func TestTwoHopPackedMatchesRaw(t *testing.T) {
	graphs := twoHopTestGraphs()
	for name, g := range twoHopBoundaryGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		raw := NewTwoHopWith(g, TwoHopOptions{Workers: 1})
		packed := NewTwoHopWith(g, TwoHopOptions{Workers: 3, Packed: true})
		if !packed.Packed() || raw.Packed() {
			t.Fatalf("%s: Packed() flags wrong: packed=%v raw=%v", name, packed.Packed(), raw.Packed())
		}
		twoHopRequireEqual(t, name+"/packed", raw, packed)
		if raw.Entries() != packed.Entries() || raw.MaxLabel() != packed.MaxLabel() ||
			math.Abs(raw.AvgLabel()-packed.AvgLabel()) > 1e-12 {
			t.Fatalf("%s: label statistics differ between representations", name)
		}
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a, b := raw.Dist(graph.NodeID(u), graph.NodeID(v)), packed.Dist(graph.NodeID(u), graph.NodeID(v)); a != b {
					t.Fatalf("%s: Dist(%d,%d) = %d raw, %d packed", name, u, v, a, b)
				}
			}
		}
		// Round trips: packing the raw build must reproduce the packed
		// build byte for byte, and unpacking must restore the raw arrays.
		po, pp, pb := packed.RawPacked()
		ro, rp, rb := raw.Pack().RawPacked()
		if !bytes.Equal(pb, rb) {
			t.Fatalf("%s: Pack() blob differs from a Packed build", name)
		}
		for i := range pp {
			if pp[i] != rp[i] {
				t.Fatalf("%s: Pack() poff[%d] = %d, want %d", name, i, rp[i], pp[i])
			}
		}
		for i := range po {
			if po[i] != ro[i] {
				t.Fatalf("%s: Pack() order[%d] differs", name, i)
			}
		}
		twoHopRequireEqual(t, name+"/unpack", raw, packed.Unpack())
		if n > 8 && packed.MemoryBytes() >= raw.MemoryBytes() {
			t.Fatalf("%s: packed oracle (%d B) not smaller than raw (%d B)",
				name, packed.MemoryBytes(), raw.MemoryBytes())
		}
	}
}

// TestTwoHopPackedDeterministicAcrossWorkers extends the worker-identity
// contract to the compressed representation and the batch-boundary sizes:
// the varint blob itself — not just the decoded labels — must be the same
// bytes at every worker count.
func TestTwoHopPackedDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range twoHopBoundaryGraphs() {
		_, bp, bb := NewTwoHopWith(g, TwoHopOptions{Workers: 1, Packed: true}).RawPacked()
		for _, workers := range []int{2, 3, 8, 64} {
			_, op, ob := NewTwoHopWith(g, TwoHopOptions{Workers: workers, Packed: true}).RawPacked()
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
	order, index, hubs, dists := NewTwoHopWith(g, TwoHopOptions{Workers: 1}).Raw()
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
	order, poff, blob := NewTwoHopWith(g, TwoHopOptions{Workers: 1, Packed: true}).RawPacked()
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
	if o, err := TwoHopPackedFromRaw(1, []graph.NodeID{0}, []int64{0, 0}, nil); err != nil || o.Entries() != 0 {
		t.Fatalf("rejected an empty packed oracle: %v", err)
	}
}

// checkPackedSlowPaths pins a packed oracle whose labels need multi-byte
// varints to its raw twin on sampled nodes and pairs: Label, MaxLabel,
// unpinned Dist and pinned Dist across re-pins all go through the
// out-of-line decode for the long varints.  It first checks the blob
// really holds 1-, 2- and 3-byte rank deltas and distances, so every slow
// path runs.
func checkPackedSlowPaths(t *testing.T, raw, packed *TwoHop) {
	t.Helper()
	_, _, blob := packed.RawPacked()
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
	if raw.MaxLabel() != packed.MaxLabel() {
		t.Fatalf("MaxLabel = %d packed, %d raw", packed.MaxLabel(), raw.MaxLabel())
	}
	n := raw.N()
	rng := xrand.New(0x17)
	var pin TwoHopPin
	for k := 0; k < 40; k++ {
		tgt := graph.NodeID(rng.Intn(n))
		wh, wd := raw.Label(tgt)
		gh, gd := packed.Label(tgt)
		if len(wh) != len(gh) {
			t.Fatalf("node %d: packed label size %d, raw %d", tgt, len(gh), len(wh))
		}
		for i := range wh {
			if wh[i] != gh[i] || wd[i] != gd[i] {
				t.Fatalf("node %d entry %d: packed (%d,%d), raw (%d,%d)", tgt, i, gh[i], gd[i], wh[i], wd[i])
			}
		}
		pin.Pin(packed, tgt)
		for j := 0; j < 25; j++ {
			u := graph.NodeID(rng.Intn(n))
			want := raw.Dist(u, tgt)
			if got := packed.Dist(u, tgt); got != want {
				t.Fatalf("packed Dist(%d,%d) = %d, raw %d", u, tgt, got, want)
			}
			if got := pin.Dist(u, tgt); got != want {
				t.Fatalf("pinned packed Dist(%d,%d) = %d, raw %d", u, tgt, got, want)
			}
		}
	}
}
