package dist

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"navaug/internal/graph"
	"navaug/internal/par"
)

// This file holds the TwoHop construction engine.  The batch schedule —
// hubs processed in geometrically growing batches of at most
// twoHopMaxBatch, each batch pruning only against the labels committed by
// earlier batches — is fixed (see twoHopMaxBatch); what this engine changes
// is how one batch runs.  Instead of one pruned BFS per hub, a whole batch
// runs as a single bit-parallel multi-source BFS:
//
//   - Every node carries a 64-bit mask, one bit per batch root.  A level-
//     synchronous sweep ORs masks along edges, so the traversal work for up
//     to 64 roots collapses into one pass with one word-OR per edge.
//   - Pruning clears bits: when root k's arrival at node v is already
//     covered by the committed labels, bit k is dropped from v's
//     propagation mask — exactly the per-root prune, applied per bit.
//   - The coverage test runs once per (node, level) over the node's
//     committed label and answers all arrived roots at once: a rank-indexed
//     root-distance matrix holds dist(root_k, hub) in 8- or 16-bit lanes,
//     and a SWAR compare turns each label entry into a per-root coverage
//     mask — in 8-bit lanes over the hub's whole 64-byte row, with no
//     per-word branch.  The label scan — the dominant cost on
//     expander-like graphs, where labels reach ~10^3 entries — is thus
//     shared across the whole batch instead of repeated per root.
//
// During construction each node's committed label is kept sorted by
// distance (a sorted run plus a small tail of recent additions), not by hub
// rank: an entry (h, dhv) can only help cover an arrival at BFS distance d
// when dhv < d, so the distance-sorted scan stops at the first entry with
// dhv >= d — typically cutting the scan in half — and meets the near hubs
// most likely to certify coverage first.  Commits arrive in hub-rank order,
// so the tail is always rank-sorted and every tail rank exceeds every run
// rank: folding it in takes one stable counting pass by distance and a
// block merge, and the final rank-ascending layout is a linear merge of the
// run's per-distance blocks with the tail appended — no comparison sort
// anywhere on the build path.
//
// Large commits are node-owned: every worker applies, in root order, the
// additions of the nodes it owns, so each label sees the same append
// sequence at every worker count.  The final pack of a large build runs
// node-parallel.  Each fan-out (level drains, commits, the pack) is gated
// on its amount of work, so small builds stay on one goroutine.
//
// The result is byte-identical to running the per-root pruned BFS for each
// hub of the batch (scalarBFS below, also the fallback engine):
// level-synchronous per-bit propagation reaches node v at exactly the
// per-root pruned-BFS distance, the coverage test reads the same committed
// labels and the same root distances (coverage is an OR over label entries,
// so scan order cannot change it), and commits only need the per-node entry
// set — which batch-then-rank order fixes regardless of the engine, the
// worker count, or the order workers drain a level.
//
// Distances inside the bit-parallel engine live in 16-bit lanes, capped by
// twoHopMaxDepth; the rare graphs that exceed it mid-batch (diameter above
// ~16k, e.g. huge near-path graphs) bail out of the batch and fall back to
// the scalar engine permanently.  Both engines produce identical labels, so
// the switch point does not affect the output.

const (
	// twoHopInf16 is the "no entry" sentinel of the root-distance matrix
	// lanes.  It must never satisfy a coverage compare: compares test
	// lane <= T with T <= twoHopMaxDepth < twoHopInf16.
	twoHopInf16 = 0x3FFF
	// twoHopMaxDepth caps BFS depth and committed label distances for the
	// bit-parallel engine; beyond it 16-bit lanes could not represent
	// root-hub distances (and the SWAR compare, which needs every lane
	// strictly below 2^15, could see carries).
	twoHopMaxDepth = twoHopInf16 - 1
	// twoHopOnes16 has 1 in each of the four 16-bit lanes.
	twoHopOnes16 uint64 = 0x0001000100010001
	// twoHopHighs16 has the top bit of each 16-bit lane.
	twoHopHighs16 uint64 = 0x8000800080008000
	// twoHopSentinelRow is a root-distance word with every lane unset.
	twoHopSentinelRow uint64 = twoHopInf16 * twoHopOnes16
	// The 8-bit-lane counterparts: while every committed distance fits 7
	// bits — true for the expander-like families throughout their build —
	// the matrix packs 8 roots per word instead of 4, halving the words the
	// coverage scan touches.
	twoHopInf8                = 0x7F
	twoHopMaxDepth8           = twoHopInf8 - 1
	twoHopOnes8        uint64 = 0x0101010101010101
	twoHopHighs8       uint64 = 0x8080808080808080
	twoHopSentinelRow8 uint64 = twoHopInf8 * twoHopOnes8
	// twoHopMoveMask16/8 are movemask-by-multiply constants: with flag
	// bits only at the top bit of each lane, hit * K places lane j's flag
	// at result bit 60+j (16-bit lanes) / 56+j (8-bit lanes).  Every
	// partial product lands on a distinct bit (16(j-j') = 15(i'-i) and
	// 8(j-j') = 7(i'-i) have no non-zero solutions in lane range), so no
	// carries — the top nibble/byte is exactly the per-lane hit mask.
	twoHopMoveMask16 uint64 = 0x0000200040008001
	twoHopMoveMask8  uint64 = 0x0002040810204081
	// twoHopLevelParallelMin is the estimated coverage work of a
	// bit-parallel level — staged nodes times the average committed label
	// size, in label entries — below which the level drains on one
	// goroutine (fan-out costs more than the work).
	twoHopLevelParallelMin = 1 << 14
	// twoHopBPChunk is the claim unit workers grab from a level's node
	// list, and from the node range of the final pack.
	twoHopBPChunk = 256
	// twoHopCommitParallelMin is the number of label additions below which
	// a batch commits on one goroutine, and twoHopPackParallelMin the label
	// entry total below which the final pack does.  Small builds (churn
	// rebuilds, paper-suite cells) often run beside other work, so every
	// fan-out waits until the work dwarfs the goroutine hand-off.
	twoHopCommitParallelMin = 8192
	twoHopPackParallelMin   = 1 << 16
	// twoHopOwnerShift sets the node blocks of the parallel commit: node v
	// belongs to worker (v >> twoHopOwnerShift) mod workers, so workers own
	// interleaved blocks of 64 consecutive nodes (balanced, and no two
	// workers write neighbouring label headers).
	twoHopOwnerShift = 6
	// twoHopTailMin / twoHopTailShare control when a node's rank-sorted
	// tail of fresh additions is folded into its distance-sorted run: at
	// twoHopTailMin entries and at least 1/twoHopTailShare of the label.
	twoHopTailMin   = 48
	twoHopTailShare = 8
)

// twoHopAdditions is one root's label additions: the nodes the pruned BFS
// labeled, in visit order, with their BFS distances.
type twoHopAdditions struct {
	nodes []graph.NodeID
	dists []int32
}

// twoHopBatchAdds holds one producer's additions for a batch, indexed by
// the root's offset in the batch.
type twoHopBatchAdds [twoHopMaxBatch]twoHopAdditions

// twoHopMergeScratch is one worker's scratch for folding tails and packing
// labels.
type twoHopMergeScratch struct {
	buf   []uint64
	count [256]int32
	bnd   []int
}

// twoHopScratch is one scalar-engine worker's reusable state.
type twoHopScratch struct {
	dist     []int32 // per-node BFS distance, twoHopUnset when unvisited
	rootDist []int32 // per-hub-rank distance from the current root
	queue    []graph.NodeID
}

// twoHopBPWorker is one bit-parallel worker's private output buffers; kept
// per worker so a level can be drained without locks, then merged
// deterministically.
type twoHopBPWorker struct {
	// add[k] collects root k's label additions.  Within one buffer
	// distances are non-decreasing (levels are processed in order), which
	// commit exploits for max tracking.
	add twoHopBatchAdds
	// curList collects the nodes that survived pruning this level (the
	// next level's frontier contribution).
	curList []graph.NodeID
	// arrived collects nodes first reached this batch, for O(visited)
	// scratch reset.
	arrived []graph.NodeID
}

// twoHopBPScratch is the bit-parallel engine's reusable state.
type twoHopBPScratch struct {
	// rd is the root-distance matrix: row h (a committed hub rank) holds
	// dist(root_k, hub_h) for the current batch's roots k in 16-bit lanes,
	// 4 lanes per word, words words per row; twoHopInf16 lanes mean "hub h
	// not in root k's label".  Rows revert to all-sentinel between batches
	// via touched.
	rd       []uint64
	words    int
	sentinel uint64 // all-unset row value for the current lane width
	touched  []int32
	// rdWordMask[h] flags which words of a 16-bit-lane row h hold any real
	// lane (bit w set when some lane of word w is not the sentinel).
	// coverage16 intersects it with the words that still have uncovered
	// arrivals; for sparse batches most label entries hit an empty
	// intersection and skip the row entirely after one small-table load.
	rdWordMask []uint16
	// Per-node masks: seen accumulates the roots that have reached the
	// node this batch, propMask is the subset still propagating (arrived
	// uncovered), nextMask stages the next level's arrivals.
	seen     []uint64
	propMask []uint64
	nextMask []uint64
	curList  []graph.NodeID // current frontier (nodes with propMask bits)
	nextList []graph.NodeID // deduped nodes receiving nextMask bits
	arrived  []graph.NodeID // nodes with seen bits, for batch reset
	workers  []*twoHopBPWorker
	adds     []*twoHopBatchAdds // the workers' add buffers, for commit
}

// twoHopBuilder drives a full build: the batch loop, the engine choice per
// batch, and the shared committed-label state.
type twoHopBuilder struct {
	g       *graph.Graph
	n       int
	order   []graph.NodeID
	workers int

	// lab[v] is node v's committed label, one uint64 per entry packing
	// dist<<32 | hub-rank so the hot scan loads an entry in one read and
	// uint64 order is (dist, rank) order.  lab[v][:sortedLen[v]] is sorted
	// ascending, the rest is the tail of recent batch additions in rank
	// order, folded in by mergeTail once it outgrows its share.  Coverage
	// scans the sorted run with an early distance cutoff, then the (small)
	// tail.
	lab       [][]uint64
	sortedLen []int32
	merge     []*twoHopMergeScratch // per commit/pack worker
	owner     []uint8               // node -> commit worker, built on first fan-out

	total   int64
	maxDist int32 // max committed label distance, gates the BP engine

	lanes8  bool // current batch runs 8-bit root-distance lanes
	bp8Dead bool // a batch exceeded twoHopMaxDepth8; stay on 16-bit lanes
	bpDead  bool // a batch exceeded twoHopMaxDepth; stay scalar
	bp      *twoHopBPScratch
	scalar  []*twoHopScratch
	results twoHopBatchAdds // the scalar engine's additions
}

// twoHopBuildLabels runs the full pruned-labeling build and returns the
// per-node labels as packed rank<<32|dist entries with ranks strictly
// increasing, plus the total entry count.  ok is false when
// opts.MaxAvgLabel is set and exceeded.  The labels are a pure function of
// (graph, order): identical for every worker count and engine path.
func twoHopBuildLabels(g *graph.Graph, order []graph.NodeID, opts TwoHopOptions) (lab [][]uint64, total int64, ok bool) {
	n := g.N()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > twoHopMaxBatch {
		workers = twoHopMaxBatch
	}
	b := &twoHopBuilder{
		g:         g,
		n:         n,
		order:     order,
		workers:   workers,
		lab:       make([][]uint64, n),
		sortedLen: make([]int32, n),
		merge:     make([]*twoHopMergeScratch, workers),
	}
	for w := range b.merge {
		b.merge[w] = &twoHopMergeScratch{}
	}
	budget := int64(-1)
	if opts.MaxAvgLabel > 0 {
		budget = int64(opts.MaxAvgLabel * float64(n))
	}
	// Test hooks: starting with an engine marked dead exercises the wider
	// engines on inputs the fast paths would otherwise own, so tests can
	// pin that every engine commits identical labels.
	b.bp8Dead = opts.force16 || opts.forceScalar
	b.bpDead = opts.forceScalar
	batch := 1
	for start := 0; start < n; {
		end := start + batch
		if end > n {
			end = n
		}
		// Engine choice per batch — a pure function of the committed labels
		// (via maxDist) and the batch's own BFS depth, never of worker
		// scheduling: 8-bit lanes while distances allow, 16-bit lanes
		// after, scalar once even those overflow.  A depth bailout redoes
		// the same batch with the next wider engine; all engines commit
		// identical labels.
		ran := false
		if !b.bpDead && b.maxDist <= twoHopMaxDepth {
			if !b.bp8Dead && b.maxDist <= twoHopMaxDepth8 {
				b.lanes8 = true
				ran = b.runBatchBP(start, end)
				if !ran {
					b.bp8Dead = true
				}
			}
			if !ran {
				b.lanes8 = false
				ran = b.runBatchBP(start, end)
				if !ran {
					b.bpDead = true
				}
			}
		}
		if ran {
			b.commit(start, end, b.bp.adds)
		} else {
			b.bpDead = true
			b.runBatchScalar(start, end)
		}
		if budget >= 0 && b.total > budget {
			return nil, 0, false
		}
		start = end
		if batch < twoHopMaxBatch {
			batch *= 2
		}
	}
	b.pack()
	return b.lab, b.total, true
}

// twoHopFanOut runs fn(0), ..., fn(workers-1) on their own goroutines and
// waits for all of them.
func twoHopFanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// commit appends the label additions of hubs [start, end): sets holds one
// twoHopBatchAdds per producer, and each node gains at most one entry per
// root across all of them.  Every node receives its entries in root order
// — on one goroutine, or, for batches of at least twoHopCommitParallelMin
// additions, on the worker owning the node — so each label sees the same
// append (and fold) sequence at every worker count.  total and maxDist are
// reduced up front; the buffers are emptied for the next batch.
func (b *twoHopBuilder) commit(start, end int, sets []*twoHopBatchAdds) {
	B := end - start
	var adds int64
	for _, set := range sets {
		for k := 0; k < B; k++ {
			dists := set[k].dists
			adds += int64(len(dists))
			// Per-buffer distances are non-decreasing (levels are
			// processed in order), so the last one is the buffer max.
			if len(dists) > 0 && dists[len(dists)-1] > b.maxDist {
				b.maxDist = dists[len(dists)-1]
			}
		}
	}
	b.total += adds
	if adds < twoHopCommitParallelMin || b.workers == 1 {
		b.commitOwned(start, end, sets, -1)
	} else {
		if b.owner == nil {
			b.owner = make([]uint8, b.n)
			for v := range b.owner {
				b.owner[v] = uint8((v >> twoHopOwnerShift) % b.workers)
			}
		}
		twoHopFanOut(b.workers, func(w int) { b.commitOwned(start, end, sets, w) })
	}
	for _, set := range sets {
		for k := 0; k < B; k++ {
			set[k].nodes = set[k].nodes[:0]
			set[k].dists = set[k].dists[:0]
		}
	}
}

// commitOwned applies the additions of hubs [start, end) to the nodes
// worker w owns, root by root; w < 0 applies them all.
func (b *twoHopBuilder) commitOwned(start, end int, sets []*twoHopBatchAdds, w int) {
	ms := b.merge[max(w, 0)]
	for k := 0; k < end-start; k++ {
		rank := uint64(start + k)
		for _, set := range sets {
			a := &set[k]
			for i, v := range a.nodes {
				if w >= 0 && int(b.owner[v]) != w {
					continue
				}
				b.commitEntry(ms, v, uint64(uint32(a.dists[i]))<<32|rank)
			}
		}
	}
}

// commitEntry appends entry e (dist<<32 | rank) to node v's tail, folding
// the tail into the sorted run whenever it exceeds its share.  Entries
// arrive in rank order, so the tail stays rank-sorted.
func (b *twoHopBuilder) commitEntry(ms *twoHopMergeScratch, v graph.NodeID, e uint64) {
	ents := append(b.lab[v], e)
	b.lab[v] = ents
	if tail := len(ents) - int(b.sortedLen[v]); tail >= twoHopTailMin && tail*twoHopTailShare >= len(ents) {
		ms.mergeTail(ents, int(b.sortedLen[v]))
		b.sortedLen[v] = int32(len(ents))
	}
}

// mergeTail folds the tail ents[s:] into the sorted run ents[:s], leaving
// all of ents sorted by (dist, rank).  The tail is rank-sorted and every
// tail rank exceeds every run rank, so a stable sort of the tail by
// distance alone — counting passes of 8 distance bits, one pass unless the
// tail spans 256 distances or more — puts it in (dist, rank) order, and in
// the merge each run block of one distance precedes the tail's block of
// that distance.  The merge moves whole blocks, from the largest distance
// down.  Amortised cost is O(twoHopTailShare) moves per entry.
func (ms *twoHopMergeScratch) mergeTail(ents []uint64, s int) {
	tail := ents[s:]
	lo, hi := uint32(tail[0]>>32), uint32(tail[0]>>32)
	for _, e := range tail {
		lo, hi = min(lo, uint32(e>>32)), max(hi, uint32(e>>32))
	}
	if cap(ms.buf) < len(tail) {
		ms.buf = make([]uint64, 2*len(tail))
	}
	buf := ms.buf[:len(tail)]
	src, dst := tail, buf
	for shift := uint(0); ; shift += 8 {
		// One stable counting pass on bits shift..shift+7 of dist-lo.
		top := min((hi-lo)>>shift, 255)
		cnt := ms.count[:top+1]
		clear(cnt)
		for _, e := range src {
			cnt[(uint32(e>>32)-lo)>>shift&0xFF]++
		}
		at := int32(0)
		for i, c := range cnt {
			cnt[i] = at
			at += c
		}
		for _, e := range src {
			dg := (uint32(e>>32) - lo) >> shift & 0xFF
			dst[cnt[dg]] = e
			cnt[dg]++
		}
		src, dst = dst, src
		if (hi-lo)>>shift < 256 {
			break
		}
	}
	if &src[0] == &tail[0] {
		// An even number of passes left the result in the tail itself.
		copy(buf, src)
		src = buf
	}
	// Merge backward, one distance block at a time: the run entries with a
	// larger distance than the tail block move up, then the block lands
	// below them.
	w, i := len(ents), s
	for j := len(src); j > 0; {
		d := src[j-1] >> 32
		g := j - 1
		for g > 0 && src[g-1]>>32 == d {
			g--
		}
		p, _ := slices.BinarySearch(ents[:i], (d+1)<<32)
		w -= i - p
		copy(ents[w:], ents[p:i])
		w -= j - g
		copy(ents[w:], src[g:j])
		i, j = p, g
	}
}

// pack rewrites every label from construction order into the
// rank-ascending rank<<32|dist entries the query and serialisation layers
// use, on all workers once the labels hold at least twoHopPackParallelMin
// entries.
func (b *twoHopBuilder) pack() {
	workers := b.workers
	if b.total < twoHopPackParallelMin {
		workers = 1
	}
	par.Ranges(b.n, twoHopBPChunk, workers, func(w, lo, hi int) error {
		for v := lo; v < hi; v++ {
			b.merge[w].packLabel(b.lab[v], int(b.sortedLen[v]))
		}
		return nil
	})
}

// packLabel puts one label in rank order: it rotates each entry to
// rank<<32|dist, merges the sorted run's per-distance blocks (each already
// rank-ascending) pairwise, bottom up, and leaves the tail — whose ranks
// all exceed the run's — where it is.
func (ms *twoHopMergeScratch) packLabel(ents []uint64, s int) {
	bnd := append(ms.bnd[:0], 0)
	for i, e := range ents {
		ents[i] = e<<32 | e>>32
		if i > 0 && i < s && uint32(e>>32) != uint32(ents[i-1]) {
			bnd = append(bnd, i)
		}
	}
	bnd = append(bnd, s)
	ms.bnd = bnd
	if len(bnd) <= 2 {
		return // at most one block
	}
	if cap(ms.buf) < s {
		ms.buf = make([]uint64, 2*s)
	}
	src, dst := ents[:s], ms.buf[:s]
	for len(bnd) > 2 {
		// Merge blocks 2j and 2j+1 of src into dst, compacting bnd to the
		// merged boundaries (written at or behind the index being read).
		m := 1
		for j := 0; j+1 < len(bnd); j += 2 {
			a, mid, c := bnd[j], bnd[j+1], bnd[j+1]
			if j+2 < len(bnd) {
				c = bnd[j+2]
			}
			twoHopMergeRuns(dst[a:c], src[a:mid], src[mid:c])
			bnd[m] = c
			m++
		}
		bnd = bnd[:m]
		src, dst = dst, src
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
}

// twoHopMergeRuns merges the ascending runs x and y into dst, which has
// room for both.
func twoHopMergeRuns(dst, x, y []uint64) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if x[i] < y[j] {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// ---------------------------------------------------------------------------
// Bit-parallel engine

// ensureBP sizes the bit-parallel scratch for a batch needing words
// root-distance words per row filled with sentinel (which fixes the lane
// width).
func (b *twoHopBuilder) ensureBP(words int, sentinel uint64) *twoHopBPScratch {
	bp := b.bp
	if bp == nil {
		bp = &twoHopBPScratch{
			seen:       make([]uint64, b.n),
			propMask:   make([]uint64, b.n),
			nextMask:   make([]uint64, b.n),
			rdWordMask: make([]uint16, b.n),
			workers:    make([]*twoHopBPWorker, b.workers),
			sentinel:   sentinel,
		}
		for w := range bp.workers {
			bp.workers[w] = &twoHopBPWorker{}
			bp.adds = append(bp.adds, &bp.workers[w].add)
		}
		b.bp = bp
	}
	if len(bp.rd) < b.n*words || bp.sentinel != sentinel {
		// A lane-width switch refills the whole matrix; it happens at most
		// once per build (maxDist only grows).
		if len(bp.rd) < b.n*words {
			bp.rd = make([]uint64, b.n*words)
		}
		bp.sentinel = sentinel
		for i := range bp.rd {
			bp.rd[i] = sentinel
		}
	}
	bp.words = words
	return bp
}

// runBatchBP runs hubs [start, end) as one bit-parallel pruned multi-source
// BFS, leaving the additions in the worker buffers for commitBP.  It
// returns false — with all scratch state restored — when the BFS exceeds
// twoHopMaxDepth, in which case the caller falls back to the scalar
// engine.
func (b *twoHopBuilder) runBatchBP(start, end int) bool {
	B := end - start
	words := (B + 3) / 4
	maxDepth := int32(twoHopMaxDepth)
	sentinel := twoHopSentinelRow
	if b.lanes8 {
		// 8-bit rows always span a full batch — one 64-byte cache line —
		// so coverage8 compares whole rows; lanes past B stay sentinel.
		words = twoHopMaxBatch / 8
		maxDepth = twoHopMaxDepth8
		sentinel = twoHopSentinelRow8
	}
	bp := b.ensureBP(words, sentinel)

	// Fill the root-distance matrix from the batch roots' committed
	// labels: lane k of row h gets dist(root_k, hub_h).
	for k := 0; k < B; k++ {
		root := b.order[start+k]
		if b.lanes8 {
			shift := uint(k&7) * 8
			for _, e := range b.lab[root] {
				h := int32(uint32(e))
				idx := int(h)*words + k>>3
				bp.rd[idx] = bp.rd[idx]&^(0xFF<<shift) | (e>>32)<<shift
				bp.touched = append(bp.touched, h)
			}
		} else {
			shift := uint(k&3) * 16
			for _, e := range b.lab[root] {
				h := int32(uint32(e))
				idx := int(h)*words + k>>2
				bp.rd[idx] = bp.rd[idx]&^(0xFFFF<<shift) | (e>>32)<<shift
				bp.rdWordMask[h] |= 1 << uint(k>>2)
				bp.touched = append(bp.touched, h)
			}
		}
	}

	// Seed the roots: each labels itself at distance 0 (its own hub rank
	// is not committed yet, so no coverage test can fire) and propagates
	// its bit.
	wk0 := bp.workers[0]
	for k := 0; k < B; k++ {
		root := b.order[start+k]
		bit := uint64(1) << uint(k)
		bp.seen[root] |= bit
		bp.propMask[root] |= bit
		bp.curList = append(bp.curList, root)
		bp.arrived = append(bp.arrived, root)
		wk0.add[k].nodes = append(wk0.add[k].nodes, root)
		wk0.add[k].dists = append(wk0.add[k].dists, 0)
	}

	ok := true
	for d := int32(1); len(bp.curList) > 0; d++ {
		if d > maxDepth {
			ok = false
			break
		}
		// Propagate: OR each frontier node's mask into its neighbours'
		// staging masks.  Serial — one word-OR per edge — so the nextList
		// dedup gives every staged node exactly one owner below.
		for _, u := range bp.curList {
			m := bp.propMask[u]
			for _, v := range b.g.Neighbors(u) {
				if bp.nextMask[v] == 0 {
					bp.nextList = append(bp.nextList, v)
				}
				bp.nextMask[v] |= m
			}
		}
		bp.curList = bp.curList[:0]
		b.processLevel(d)
		bp.nextList = bp.nextList[:0]
		for _, wk := range bp.workers {
			bp.curList = append(bp.curList, wk.curList...)
			bp.arrived = append(bp.arrived, wk.arrived...)
			wk.curList = wk.curList[:0]
			wk.arrived = wk.arrived[:0]
		}
	}

	// Restore the shared scratch (and, on bailout, the worker buffers) to
	// their all-clear state.  nextMask needs nothing: the depth check sits
	// before propagation, so the last processed level zeroed every entry.
	for _, v := range bp.arrived {
		bp.seen[v] = 0
		bp.propMask[v] = 0
	}
	bp.arrived = bp.arrived[:0]
	bp.curList = bp.curList[:0]
	for _, h := range bp.touched {
		row := bp.rd[int(h)*words:]
		for w := 0; w < words; w++ {
			row[w] = sentinel
		}
		bp.rdWordMask[h] = 0
	}
	bp.touched = bp.touched[:0]
	if !ok {
		for _, wk := range bp.workers {
			for k := 0; k < B; k++ {
				wk.add[k].nodes = wk.add[k].nodes[:0]
				wk.add[k].dists = wk.add[k].dists[:0]
			}
		}
	}
	return ok
}

// processLevel drains the staged arrivals of level d: coverage-tests every
// node on nextList and records survivors.  Parallel when the level's
// estimated work reaches twoHopLevelParallelMin; each staged node appears
// exactly once on nextList, so workers own disjoint nodes and all writes
// are race-free.
func (b *twoHopBuilder) processLevel(d int32) {
	bp := b.bp
	list := bp.nextList
	workers := b.workers
	if int64(len(list))*(b.total/int64(b.n)+1) < twoHopLevelParallelMin {
		workers = 1
	}
	par.Ranges(len(list), twoHopBPChunk, workers, func(w, lo, hi int) error {
		b.processRange(bp.workers[w], list[lo:hi], d)
		return nil
	})
}

// processRange handles a slice of level-d staged nodes: consume the staging
// mask, drop already-seen bits, coverage-test the rest, and record label
// additions and the propagating survivors.
func (b *twoHopBuilder) processRange(wk *twoHopBPWorker, list []graph.NodeID, d int32) {
	bp := b.bp
	for _, v := range list {
		nm := bp.nextMask[v]
		bp.nextMask[v] = 0
		arr := nm &^ bp.seen[v]
		if arr == 0 {
			continue
		}
		if bp.seen[v] == 0 {
			wk.arrived = append(wk.arrived, v)
		}
		bp.seen[v] |= arr
		var cov uint64
		if b.lanes8 {
			cov = b.coverage8(v, arr, d)
		} else {
			cov = b.coverage16(v, arr, d)
		}
		surv := arr &^ cov
		if surv == 0 {
			continue
		}
		bp.propMask[v] = surv
		wk.curList = append(wk.curList, v)
		for s := surv; s != 0; s &= s - 1 {
			a := &wk.add[bits.TrailingZeros64(s)]
			a.nodes = append(a.nodes, v)
			a.dists = append(a.dists, d)
		}
	}
}

// coverage16 returns a mask whose bits within the arrival bits arr are the
// roots covered at (v, d) (bits outside arr are don't-cares): root k is
// covered when some committed entry (h, dhv) of v's label satisfies
// dist(root_k, h) + dhv <= d.  One scan of v's
// label answers every arrived root: each entry becomes a per-root
// threshold test dist(root_k, h) <= d - dhv, evaluated four roots per word
// by an exact SWAR lane compare.  The scan runs over the distance-sorted
// run first — stopping at the first entry with dhv >= d, which no
// remaining entry can beat — and then over the small unsorted tail.  Words
// are visited only when they both hold a real lane of the entry's row
// (rdWordMask) and still have an uncovered arrival; most entries fail the
// intersection and never touch the matrix.
func (b *twoHopBuilder) coverage16(v graph.NodeID, arr uint64, d int32) uint64 {
	bp := b.bp
	rd := bp.rd
	wm := bp.rdWordMask
	words := bp.words
	ents := b.lab[v]
	var cov uint64
	rem := arr
	// remWW mirrors rem as a bit-per-word mask: bit w set when any of
	// word w's four roots is still uncovered.
	remWW := twoHopNibbleMask(rem)
	s := int(b.sortedLen[v])
	i, end := 0, s
	for pass := 0; pass < 2; pass++ {
		for ; i < end; i++ {
			e := ents[i]
			T := d - int32(e>>32)
			if T <= 0 {
				if pass == 0 {
					// Sorted by distance: no later run entry can help
					// (an entry with dhv >= d could only cover a root at
					// distance <= 0 from its hub — impossible, batch
					// roots are uncommitted).
					break
				}
				continue
			}
			h := uint32(e)
			mw := uint64(wm[h]) & remWW
			if mw == 0 {
				continue
			}
			// Lanes cap at twoHopInf16 and T+1 at twoHopMaxDepth+1, so
			// the 4-lane compare is exact.
			D := uint64(uint32(T+1)) * twoHopOnes16
			base := int(h) * words
			hitAny := false
			for ; mw != 0; mw &= mw - 1 {
				w := bits.TrailingZeros64(mw)
				hit := twoHopLanesLE16(rd[base+w], D)
				if hit == 0 {
					continue
				}
				cov |= (hit * twoHopMoveMask16 >> 60) << uint(w*4)
				hitAny = true
			}
			if hitAny {
				// Late in a scan most hits re-flag already-covered
				// lanes; only refresh the word mask when a root was
				// newly covered.
				if nr := arr &^ cov; nr != rem {
					if nr == 0 {
						return cov
					}
					rem = nr
					remWW = twoHopNibbleMask(nr)
				}
			}
		}
		i, end = s, len(ents)
	}
	return cov
}

// coverage8 is coverage16 for 8-bit root-distance lanes, whose rows are
// always 8 words — one 64-byte cache line.  Each entry compares its whole
// row with no per-word branch: the twoHopLanesLE8 compare of every word
// (exact, as every lane stays below 2^7), masked by hi — the top bits of
// the lanes whose roots are still uncovered, so covered and absent roots
// never count — and ORed across the words.  Only an entry that covers a
// new root pays for turning the hits into root bits (twoHopRowBits8).
func (b *twoHopBuilder) coverage8(v graph.NodeID, arr uint64, d int32) uint64 {
	rd := b.bp.rd
	ents := b.lab[v]
	rem := arr
	var hi [8]uint64
	for w := range hi {
		hi[w] = twoHopSpreadHighs8(rem >> (8 * w))
	}
	s := int(b.sortedLen[v])
	i, end := 0, s
	for pass := 0; pass < 2; pass++ {
		for ; i < end; i++ {
			e := ents[i]
			T := d - int32(e>>32)
			if T <= 0 {
				if pass == 0 {
					break // sorted by distance, as in coverage16
				}
				continue
			}
			D := uint64(uint32(T+1)) * twoHopOnes8
			row := (*[8]uint64)(rd[int(uint32(e))*8:])
			// hi holds lane top bits only, so hi &^ z is hi & LE8(row, D).
			if hi[0]&^((row[0]|twoHopHighs8)-D)|
				hi[1]&^((row[1]|twoHopHighs8)-D)|
				hi[2]&^((row[2]|twoHopHighs8)-D)|
				hi[3]&^((row[3]|twoHopHighs8)-D)|
				hi[4]&^((row[4]|twoHopHighs8)-D)|
				hi[5]&^((row[5]|twoHopHighs8)-D)|
				hi[6]&^((row[6]|twoHopHighs8)-D)|
				hi[7]&^((row[7]|twoHopHighs8)-D) == 0 {
				continue
			}
			if rem &^= twoHopRowBits8(row, &hi, D); rem == 0 {
				return arr
			}
		}
		i, end = s, len(ents)
	}
	return arr &^ rem
}

// twoHopLanesLE16 flags the 16-bit lanes of x that are <= T, where D is
// T+1 in every lane: the result has the top bit of each such lane set.
// Exact while every lane and T+1 stay below 2^15: setting the lane top
// bits before subtracting keeps each lane's borrow inside the lane, so the
// surviving top bit is exactly "lane < T+1".  (The classic hasless() trick
// is NOT exact per lane — a lower lane's borrow can corrupt upper lanes.)
func twoHopLanesLE16(x, D uint64) uint64 { return ^((x | twoHopHighs16) - D) & twoHopHighs16 }

// twoHopLanesLE8 is twoHopLanesLE16 for 8-bit lanes, exact while every
// lane and T+1 stay below 2^7.
func twoHopLanesLE8(x, D uint64) uint64 { return ^((x | twoHopHighs8) - D) & twoHopHighs8 }

// twoHopRowBits8 returns, as root bits (bit 8w+j for lane j of word w),
// the lanes of row flagged in hi that are <= T (D as in twoHopLanesLE8),
// and clears them from hi.
func twoHopRowBits8(row, hi *[8]uint64, D uint64) uint64 {
	var bits uint64
	for w := range hi {
		hit := hi[w] & twoHopLanesLE8(row[w], D)
		bits |= (hit * twoHopMoveMask8 >> 56) << uint(w*8)
		hi[w] &^= hit
	}
	return bits
}

// twoHopSpreadHighs8 spreads the low byte of m over the lane top bits of
// a word of 8-bit lanes: bit j of m becomes bit 8j+7.
func twoHopSpreadHighs8(m uint64) uint64 {
	m &= 0xFF
	m = (m | m<<28) & 0x0000000F0000000F
	m = (m | m<<14) & 0x0003000300030003
	m = (m | m<<7) & 0x0101010101010101
	return m << 7
}

// twoHopNibbleMask collapses each 4-bit root group of m into one bit: bit
// w of the result is set exactly when any of bits 4w..4w+3 of m is.
func twoHopNibbleMask(m uint64) uint64 {
	m |= m >> 1
	m |= m >> 2
	m &= 0x1111111111111111
	// One flag bit per nibble (at position 4w); compress to one bit per
	// position with a shift-or cascade.
	m = (m | m>>3) & 0x0303030303030303
	m = (m | m>>6) & 0x000F000F000F000F
	m = (m | m>>12) & 0x000000FF000000FF
	m = (m | m>>24) & 0xFFFF
	return m
}

// ---------------------------------------------------------------------------
// Scalar engine (fallback for graphs deeper than the 16-bit lane budget)

// runBatchScalar runs hubs [start, end) as independent per-root pruned
// BFSes (in parallel across roots) and commits in hub order — the original
// engine, producing the same labels as the bit-parallel path.
func (b *twoHopBuilder) runBatchScalar(start, end int) {
	if b.scalar == nil {
		b.scalar = make([]*twoHopScratch, b.workers)
		for w := range b.scalar {
			sc := &twoHopScratch{
				dist:     make([]int32, b.n),
				rootDist: make([]int32, b.n),
				queue:    make([]graph.NodeID, 0, b.n),
			}
			for i := 0; i < b.n; i++ {
				sc.dist[i] = twoHopUnset
				sc.rootDist[i] = twoHopUnset
			}
			b.scalar[w] = sc
		}
	}
	par.Ranges(end-start, 1, b.workers, func(w, lo, hi int) error {
		for k := lo; k < hi; k++ {
			b.scalarBFS(b.order[start+k], b.scalar[w], &b.results[k])
		}
		return nil
	})
	b.commit(start, end, []*twoHopBatchAdds{&b.results})
}

// scalarBFS runs the pruned BFS from root against the committed labels,
// appending its additions to out: a node u reached at distance d is
// labeled (and expanded) only if no committed two-hop path already
// certifies dist(root, u) <= d.
func (b *twoHopBuilder) scalarBFS(root graph.NodeID, sc *twoHopScratch, out *twoHopAdditions) {
	rootEnts := b.lab[root]
	for _, e := range rootEnts {
		sc.rootDist[uint32(e)] = int32(e >> 32)
	}
	queue := sc.queue[:0]
	queue = append(queue, root)
	sc.dist[root] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := sc.dist[u]
		// Prune when the committed labels already answer dist(root, u):
		// every two-hop estimate is an upper bound, so estimate <= du
		// means it equals the true distance and this entry is redundant.
		// The sorted run allows the same distance cutoff as coverage; the
		// unsorted tail is scanned in full.
		covered := false
		ents := b.lab[u]
		i, end := 0, int(b.sortedLen[u])
		for pass := 0; pass < 2 && !covered; pass++ {
			for ; i < end; i++ {
				e := ents[i]
				dhv := int32(e >> 32)
				if dhv >= du {
					if pass == 0 {
						break // sorted: no later run entry can help
					}
					continue
				}
				if rd := sc.rootDist[uint32(e)]; rd >= 0 && rd+dhv <= du {
					covered = true
					break
				}
			}
			i, end = int(b.sortedLen[u]), len(ents)
		}
		if covered {
			continue
		}
		out.nodes = append(out.nodes, u)
		out.dists = append(out.dists, du)
		for _, v := range b.g.Neighbors(u) {
			if sc.dist[v] == twoHopUnset {
				sc.dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	// Reset the touched scratch entries so the next BFS starts clean.
	for _, u := range queue {
		sc.dist[u] = twoHopUnset
	}
	for _, e := range rootEnts {
		sc.rootDist[uint32(e)] = twoHopUnset
	}
	sc.queue = queue
}
