package dist

import (
	"bytes"
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
// 8-bit lane depth cap, so the whole build runs 16-bit lanes.
func twoHopDeepGrid() *graph.Graph { return gridGraph(16, 512) }

// twoHopEngines names the build engines the test hooks can force.
var twoHopEngines = []struct {
	name string
	opts TwoHopOptions
}{
	{"8-bit", TwoHopOptions{}},
	{"16-bit", TwoHopOptions{force16: true}},
	{"scalar", TwoHopOptions{forceScalar: true}},
}

// TestTwoHopBuildIdentityAtScale is the worker × engine identity contract
// at a size where the build really fans out: the parallel level drains,
// the node-owned parallel commit and the parallel final pack all run
// (the small graphs of the other 2-hop tests never reach them).  The packed label
// arrays must be the same bytes for every worker count and every engine.
// It takes seconds (minutes under -race), so -short skips it; CI's race job
// runs it on its own, without -short.
func TestTwoHopBuildIdentityAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4096-node expander nine times")
	}
	g := twoHopExpanderLike()
	wantOrder, wantPoff, wantBlob := NewTwoHopWith(g, TwoHopOptions{Workers: 1}).RawPacked()
	for _, eng := range twoHopEngines {
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

// BenchmarkTwoHopBuild times whole label builds per engine: an
// expander-like graph (8-bit lanes by default) and a deep grid (16-bit
// lanes by default), each also forced onto the wider engines, so the
// 16-bit lane can be weighed against the scalar engine it backs up.
func BenchmarkTwoHopBuild(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"expander", twoHopExpanderLike()},
		{"grid-deep", twoHopDeepGrid()},
	}
	for _, gc := range graphs {
		for _, eng := range twoHopEngines {
			if gc.name == "grid-deep" && eng.name == "8-bit" {
				continue // the deep grid never runs 8-bit lanes
			}
			b.Run(gc.name+"/"+eng.name, func(b *testing.B) {
				var entries int64
				for b.Loop() {
					entries = NewTwoHopWith(gc.g, eng.opts).Entries()
				}
				b.ReportMetric(float64(entries)/float64(gc.g.N()), "labels/node")
			})
		}
	}
}

// twoHopRandLane draws a lane value for the SWAR compare tests: the
// sentinel one time in four, otherwise a distance in [0, maxDepth].
func twoHopRandLane(rng *xrand.RNG, maxDepth, sentinel int) uint64 {
	if rng.Intn(4) == 0 {
		return uint64(sentinel)
	}
	return uint64(rng.Intn(maxDepth + 1))
}

// TestTwoHopLaneCompare checks the per-word SWAR compares against a
// per-lane reference (lane <= T) for every threshold the build can pose,
// T = 1 … max depth (so the subtrahend T+1 reaches max depth + 1), in
// 8-bit and 16-bit lanes, on random lanes that include the sentinel — which
// must never compare as covered.
func TestTwoHopLaneCompare(t *testing.T) {
	cases := []struct {
		name                  string
		width, maxDepth, sent int
		ones                  uint64
		le                    func(x, D uint64) uint64
	}{
		{"8-bit", 8, twoHopMaxDepth8, twoHopInf8, twoHopOnes8, twoHopLanesLE8},
		{"16-bit", 16, twoHopMaxDepth, twoHopInf16, twoHopOnes16, twoHopLanesLE16},
	}
	rng := xrand.New(7)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lanes := 64 / c.width
			for T := 1; T <= c.maxDepth; T++ {
				D := uint64(T+1) * c.ones
				for range 8 {
					var x, want uint64
					for j := 0; j < lanes; j++ {
						lane := twoHopRandLane(rng, c.maxDepth, c.sent)
						if rng.Intn(8) == 0 {
							lane = uint64(T) // the boundary itself
						}
						x |= lane << uint(j*c.width)
						if lane <= uint64(T) {
							want |= 1 << uint(j*c.width+c.width-1)
						}
					}
					if got := c.le(x, D); got != want {
						t.Fatalf("T=%d x=%#x: got %#x, want %#x", T, x, got, want)
					}
				}
			}
		})
	}
}

// TestTwoHopCoverageCompare checks the label scans — coverage8's
// branch-free full-row compare on 8-bit lanes, coverage16's per-word one on
// 16-bit lanes — against a scalar reference on a hand-built batch of 64
// roots: root k of the arrivals is covered at (v, d) when some entry
// (h, dhv) of v's label has lane(h, k) + dhv <= d.  Every threshold
// T = d - dhv from 1 to the max depth occurs in 8-bit lanes, a spread
// sample of them in 16-bit lanes.
func TestTwoHopCoverageCompare(t *testing.T) {
	const hubs = 24
	rng := xrand.New(11)
	for _, lanes8 := range []bool{true, false} {
		maxDepth, sent, width := twoHopMaxDepth, twoHopInf16, 16
		if lanes8 {
			maxDepth, sent, width = twoHopMaxDepth8, twoHopInf8, 8
		}
		per := 64 / width // lanes per word
		words := 64 / per
		for T := 1; T <= maxDepth; T += 1 + rng.Intn(1+maxDepth/200) {
			// Rows: lane k of row h is dist(root_k, hub h) or the sentinel.
			lane := make([][64]uint64, hubs)
			bp := &twoHopBPScratch{rd: make([]uint64, hubs*words), words: words, rdWordMask: make([]uint16, hubs)}
			for h := range lane {
				for k := range lane[h] {
					lane[h][k] = twoHopRandLane(rng, maxDepth, sent)
					bp.rd[h*words+k/per] |= lane[h][k] << uint(k%per*width)
					if lane[h][k] != uint64(sent) {
						bp.rdWordMask[h] |= 1 << uint(k/per)
					}
				}
			}
			// v's label: a distance-sorted run and a rank-sorted tail, with
			// entries at threshold exactly T among others.
			d := T + rng.Intn(maxDepth-T+1)
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
					if arr>>k&1 == 1 && lane[h][k] != uint64(sent) && int(lane[h][k])+dhv <= d {
						want |= 1 << k
					}
				}
			}
			cov := b.coverage16(0, arr, int32(d))
			if lanes8 {
				cov = b.coverage8(0, arr, int32(d))
			}
			if cov&arr != want { // bits outside arr are don't-cares
				t.Fatalf("%d-bit lanes: T=%d d=%d arr=%#x: covered %#x, want %#x", width, T, d, arr, cov, want)
			}
		}
	}
}

// TestTwoHopGroupMasks checks twoHopNibbleMask's root-group collapse
// against a per-group reference, and twoHopSpreadHighs8 against a per-bit
// one.
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
		var nibbles, spread uint64
		for w := 0; w < 8; w++ {
			if m>>w&1 == 1 {
				spread |= 1 << uint(8*w+7)
			}
		}
		for w := 0; w < 16; w++ {
			if m>>uint(4*w)&0xF != 0 {
				nibbles |= 1 << w
			}
		}
		if got := twoHopNibbleMask(m); got != nibbles {
			t.Fatalf("twoHopNibbleMask(%#x) = %#x, want %#x", m, got, nibbles)
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
