package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// twoHopExpanderLike is an expander big enough that a build crosses every
// fan-out gate of twoHopBuildLabels: the union of two random Hamiltonian
// cycles on 4096 nodes (degree <= 4), whose labels grow to hundreds of
// entries, whose middle BFS levels stage thousands of nodes, and whose
// full batches commit tens of thousands of additions.
func twoHopExpanderLike() *graph.Graph {
	const n = 4096
	rng := xrand.New(4)
	b := graph.NewBuilder(n)
	for range 2 {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range perm {
			b.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
	return b.Build()
}

// twoHopDeepGrid is a long, thin grid: its first traversal exceeds the
// 8-bit lane depth cap, so the whole build runs on the scalar engine.
func twoHopDeepGrid() *graph.Graph { return gridGraph(16, 512) }

// TestTwoHopBuildIdentityAtScale is the worker × engine identity contract
// at a size where the build really fans out: the parallel level drains,
// the node-owned parallel commit and the parallel final pack all run
// (the small graphs of the other 2-hop tests never reach them).  The packed label
// arrays must be the same bytes for every worker count and both engines;
// the expander's default build stays in 8-bit lanes throughout.
// It takes seconds (minutes under -race), so -short skips it; CI's race job
// runs it on its own, without -short.
func TestTwoHopBuildIdentityAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4096-node expander six times")
	}
	g := twoHopExpanderLike()
	wantOrder, wantPoff, wantBlob := NewTwoHopWith(g, TwoHopOptions{Workers: 1}).RawPacked()
	engines := []struct {
		name string
		opts TwoHopOptions
	}{
		{"8-bit", TwoHopOptions{}},
		{"scalar", TwoHopOptions{forceScalar: true}},
	}
	for _, eng := range engines {
		for _, workers := range []int{1, 2, 3} {
			if eng.name == "8-bit" && workers == 1 {
				continue // the reference
			}
			t.Run(fmt.Sprintf("%s/workers=%d", eng.name, workers), func(t *testing.T) {
				opts := eng.opts
				opts.Workers = workers
				order, poff, blob := NewTwoHopWith(g, opts).RawPacked()
				if !slices.Equal(order, wantOrder) || !slices.Equal(poff, wantPoff) || !bytes.Equal(blob, wantBlob) {
					t.Fatalf("packed labels differ from the 1-worker 8-bit build")
				}
			})
		}
	}
}

// TestTwoHopLabelsGolden pins the packed label bytes against history: the
// identity tests compare engines and worker counts with each other, so a
// change that shifts every engine the same way would pass them.  Each case
// hashes RawPacked() — order as int32s, poff as int64s, then the blob, all
// little-endian — at 1 and 3 workers.  The grid, the long path and the
// 255-cycle (whose traversals reach depth 127, one past the 8-bit cap)
// leave the 8-bit lanes on their first batch; the expander stays in them
// throughout.
func TestTwoHopLabelsGolden(t *testing.T) {
	cases := []struct {
		name string
		g    func() *graph.Graph
		slow bool
		want string
	}{
		{"grid-16x512", twoHopDeepGrid, false, "f32e91cdbc161d6be8272008e04e1c05c888e35dd7fa42dd1f3a0513d71a73fe"},
		{"expander", twoHopExpanderLike, true, "34852d44ffb4de9b9e7d411a667d2ab3499cc8898eb1e079aec29b638a3ac321"},
		{"path-20000", func() *graph.Graph { return pathGraph(20000) }, false, "db634817c68f221bd01b5223b43308bf0a39133ca759c48fd411513f8a620bfc"},
		{"cycle-255", func() *graph.Graph { return cycleGraph(255) }, false, "fa91954290de5f9d4f9d25c3848ac5c0895b41d06c0eb7e5ee9e63e7352041ea"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("builds a 4096-node expander twice")
			}
			g := c.g()
			for _, workers := range []int{1, 3} {
				order, poff, blob := NewTwoHopWith(g, TwoHopOptions{Workers: workers}).RawPacked()
				h := sha256.New()
				for _, v := range order {
					h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
				}
				for _, p := range poff {
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p)))
				}
				h.Write(blob)
				if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
					t.Errorf("workers=%d: labels hash to %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}

// BenchmarkTwoHopBuild times whole label builds on the default engine
// choice and forced scalar: an expander-like graph and a 24³ grid (depth
// 69), both in 8-bit lanes throughout by default, and a deep grid, whose
// default build bails out of the 8-bit lanes on its first batch — so
// grid-deep/default shows what that bailout costs over grid-deep/scalar.
func BenchmarkTwoHopBuild(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"expander", twoHopExpanderLike()},
		{"grid-deep", twoHopDeepGrid()},
		{"grid-3d", cubeGraph(24)},
	}
	engines := []struct {
		name string
		opts TwoHopOptions
	}{
		{"default", TwoHopOptions{}},
		{"scalar", TwoHopOptions{forceScalar: true}},
	}
	for _, gc := range graphs {
		for _, eng := range engines {
			b.Run(gc.name+"/"+eng.name, func(b *testing.B) {
				var entries int64
				for b.Loop() {
					entries = NewTwoHopWith(gc.g, eng.opts).entries
				}
				b.ReportMetric(float64(entries)/float64(gc.g.N()), "labels/node")
			})
		}
	}
}

// twoHopRandLane draws a lane value for the SWAR compare tests: the
// sentinel one time in four, otherwise a distance in [0, twoHopMaxDepth8].
func twoHopRandLane(rng *xrand.RNG) uint64 {
	if rng.Intn(4) == 0 {
		return twoHopInf8
	}
	return uint64(rng.Intn(twoHopMaxDepth8 + 1))
}

// TestTwoHopLaneCompare checks the per-word SWAR compare against a
// per-lane reference (lane <= T) for every threshold the build can pose,
// T = 1 … twoHopMaxDepth8 (so the subtrahend T+1 reaches max depth + 1),
// on random 8-bit lanes that include the sentinel — which must never
// compare as covered.
func TestTwoHopLaneCompare(t *testing.T) {
	rng := xrand.New(7)
	t.Run("8-bit", func(t *testing.T) {
		for T := 1; T <= twoHopMaxDepth8; T++ {
			D := uint64(T+1) * twoHopOnes8
			for range 8 {
				var x, want uint64
				for j := 0; j < 8; j++ {
					lane := twoHopRandLane(rng)
					if rng.Intn(8) == 0 {
						lane = uint64(T) // the boundary itself
					}
					x |= lane << uint(j*8)
					if lane <= uint64(T) {
						want |= 1 << uint(j*8+7)
					}
				}
				if got := twoHopLanesLE8(x, D); got != want {
					t.Fatalf("T=%d x=%#x: got %#x, want %#x", T, x, got, want)
				}
			}
		}
	})
}

// TestTwoHopCoverageCompare checks coverage8's branch-free full-row label
// scan against a scalar reference on a hand-built batch of 64 roots: root
// k of the arrivals is covered at (v, d) when some entry (h, dhv) of v's
// label has lane(h, k) + dhv <= d.  Every threshold T = d - dhv from 1 to
// twoHopMaxDepth8 occurs.
func TestTwoHopCoverageCompare(t *testing.T) {
	const hubs = 24
	rng := xrand.New(11)
	for T := 1; T <= twoHopMaxDepth8; T++ {
		// Rows: lane k of row h is dist(root_k, hub h) or the sentinel.
		lane := make([][64]uint64, hubs)
		bp := &twoHopBPScratch{rd: make([]uint64, hubs*8)}
		for h := range lane {
			for k := range lane[h] {
				lane[h][k] = twoHopRandLane(rng)
				bp.rd[h*8+k/8] |= lane[h][k] << uint(k%8*8)
			}
		}
		// v's label: a distance-sorted run and a rank-sorted tail, with
		// entries at threshold exactly T among others.
		d := T + rng.Intn(twoHopMaxDepth8-T+1)
		var run, tail []uint64
		for h := 0; h < hubs; h++ {
			dhv := d - T
			if rng.Intn(2) == 0 {
				dhv = rng.Intn(d + 2) // may reach dhv >= d: never covers
			}
			e := uint64(dhv)<<32 | uint64(h)
			if h < hubs/2 {
				run = append(run, e)
			} else {
				tail = append(tail, e)
			}
		}
		slices.Sort(run)
		b := &twoHopBuilder{lab: [][]uint64{append(run, tail...)}, sortedLen: []int32{int32(len(run))}, bp: bp}
		arr := rng.Uint64()
		var want uint64
		for k := 0; k < 64; k++ {
			for _, e := range b.lab[0] {
				h, dhv := uint32(e), int(e>>32)
				if arr>>k&1 == 1 && lane[h][k] != twoHopInf8 && int(lane[h][k])+dhv <= d {
					want |= 1 << k
				}
			}
		}
		if cov := b.coverage8(0, arr, int32(d)); cov&arr != want { // bits outside arr are don't-cares
			t.Fatalf("T=%d d=%d arr=%#x: covered %#x, want %#x", T, d, arr, cov, want)
		}
	}
}

// TestTwoHopGroupMasks checks twoHopSpreadHighs8, which spreads a root
// group's bits over its word's lane top bits, against a per-bit reference.
func TestTwoHopGroupMasks(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 1<<14; i++ {
		m := rng.Uint64()
		// Sparse masks exercise single groups and group boundaries.
		switch i % 4 {
		case 1:
			m &= rng.Uint64() & rng.Uint64()
		case 2:
			m = 1 << uint(rng.Intn(64))
		case 3:
			m = 0
		}
		var spread uint64
		for w := 0; w < 8; w++ {
			if m>>w&1 == 1 {
				spread |= 1 << uint(8*w+7)
			}
		}
		if got := twoHopSpreadHighs8(m); got != spread {
			t.Fatalf("twoHopSpreadHighs8(%#x) = %#x, want %#x", m, got, spread)
		}
	}
}

// TestTwoHopMergeTailAndPack checks the comparison-free label folds
// against a sort: mergeTail must leave run+tail in (dist, rank) order, and
// packLabel must leave it in rank order with the halves rotated.  Tails
// span 1 to 2^20 distances, so one, two and three counting passes run.
func TestTwoHopMergeTailAndPack(t *testing.T) {
	rng := xrand.New(3)
	var ms twoHopMergeScratch
	for _, span := range []int{1, 5, 255, 256, 4000, 1 << 20} {
		for trial := 0; trial < 50; trial++ {
			// Ranks ascend with the index, so the tail is rank-sorted and
			// above the run, as commits guarantee.
			s, tl := rng.Intn(200), 1+rng.Intn(150)
			lo, rank := rng.Intn(1000), 0
			ents := make([]uint64, s+tl)
			for i := range ents {
				rank += 1 + rng.Intn(3)
				ents[i] = uint64(lo+rng.Intn(span))<<32 | uint64(rank)
			}
			slices.Sort(ents[:s])
			want := slices.Clone(ents)
			slices.Sort(want)

			got := slices.Clone(ents)
			ms.mergeTail(got, s)
			if !slices.Equal(got, want) {
				t.Fatalf("span %d: mergeTail(run %d, tail %d) = %v, want %v", span, s, tl, got, want)
			}

			packed := slices.Clone(ents)
			ms.packLabel(packed, s)
			wantPacked := make([]uint64, len(ents))
			for i, e := range ents {
				wantPacked[i] = e<<32 | e>>32
			}
			slices.Sort(wantPacked)
			if !slices.Equal(packed, wantPacked) {
				t.Fatalf("span %d: packLabel(run %d, tail %d) = %v, want %v", span, s, tl, packed, wantPacked)
			}
		}
	}
}
