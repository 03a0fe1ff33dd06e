package dist

import (
	"fmt"
	"runtime"
	"sort"

	"navaug/internal/graph"
	"navaug/internal/par"
)

// TwoHop is an exact 2-hop-cover distance oracle (pruned landmark labeling)
// for arbitrary unweighted graphs.  Every node v stores a label: a sorted
// list of (hub, dist(hub, v)) pairs such that for every connected pair
// (u, v) some hub on a shortest u–v path appears in both labels.  A query
// is then one merged scan,
//
//	Dist(u, v) = min over common hubs h of dist(u, h) + dist(h, v),
//
// costing O(|label_u| + |label_v|) time and O(1) memory — which is what
// opens the million-node routing regime to graphs with no closed-form
// analytic metric (the structured families keep their O(1) metrics; see
// SourcePolicy for how the tiers are picked).
//
// Construction processes nodes as hubs in order of decreasing degree (ties
// by id) and runs a pruned BFS from each: a node u reached at distance d is
// skipped — neither labeled nor expanded — when the labels committed so far
// already certify dist(hub, u) <= d.  Hubs are processed in fixed-size
// batches against the labels committed by earlier batches; one batch runs
// as a single 64-wide bit-parallel multi-source BFS (per-node 64-bit
// reachability masks, one bit per hub; see twohop_build.go), so the
// traversal and the pruning scans are shared across the whole batch instead
// of repeated per hub.  Additions are merged in hub order, so the resulting
// labels are byte-for-byte identical for every worker count (they depend
// only on the batch schedule, which is a fixed function of the hub index).
// Exactness does not depend on the hub order or batching — pruning only
// drops entries whose distance the committed labels already answer — but
// label sizes do: degree order keeps them small on graphs with skewed
// degrees or local structure, while on expander-like graphs (random
// regular, sparse GNP) 2-hop covers are inherently large and labels grow
// polynomially; see the E12 notes in BENCH_experiments.json.
//
// Node v's label is stored as one byte stream of (hub-rank delta, dist)
// varint pairs, ~2-3 bytes per entry instead of 8 for two int32s.  Probes
// decode the streams on the fly, one-byte varints inline (twoHopVarint).
// Labels in the legacy uncompressed layout, as old snapshots store them,
// are packed at load (TwoHopFromRaw).
//
// The oracle is immutable after construction and safe for concurrent
// readers.  Unreachable pairs yield graph.Unreachable: a hub's BFS never
// leaves its component, so cross-component labels share no hubs.
type TwoHop struct {
	n        int32
	entries  int64
	maxLabel int            // largest single-node label size
	order    []graph.NodeID // hub rank -> node, decreasing degree
	// Node v's label is the varint stream blob[poff[v]:poff[v+1]] of
	// (hub-rank delta, dist) pairs, hub ranks strictly increasing.
	poff []int64
	blob []byte
}

// TwoHopOptions tunes NewTwoHopWith.
type TwoHopOptions struct {
	// Workers is the per-batch build worker count; <= 0 means GOMAXPROCS.
	// The labels are identical for every worker count.
	Workers int
	// MaxAvgLabel, when positive, aborts the build as soon as the total
	// label count exceeds MaxAvgLabel·n (NewTwoHopWith then returns nil).
	// On expander-like graphs 2-hop covers inherently grow ~sqrt(n) labels
	// per node; the budget lets the automatic SourcePolicy try the oracle
	// and fall back to BFS fields at bounded cost.  The check runs at batch
	// commits only, so whether a build aborts — like the labels themselves
	// — is a pure function of the graph, never of the worker count.
	MaxAvgLabel float64
	// Packed is ignored.
	//
	// Deprecated: labels are always packed.
	Packed bool
	// forceScalar disables the bit-parallel build engine (tests only): it
	// pins the byte-identity contract by diffing the engines.
	forceScalar bool
}

// twoHopMaxBatch caps the number of hubs per bit-parallel batch (the mask
// width).  Batches grow geometrically from 1: the first hubs — whose
// traversals are the expensive, graph-spanning ones — run (nearly)
// sequentially so each sees the previous hubs' labels and prunes as
// aggressively as sequential PLL, while the long tail of cheap, quickly
// pruned hubs runs 64 wide.  The schedule is a fixed function of the hub
// index — not of the worker count — because batch boundaries (unlike
// scheduling) influence which prunes fire and therefore the exact label
// sets; workers only split a batch's fixed work.
const twoHopMaxBatch = 64

// twoHopUnset marks an absent entry in the dense per-root hub-distance
// scratch used by the scalar construction fallback.
const twoHopUnset int32 = -1

// twoHopInf is the query accumulator's starting value; any realisable
// two-hop distance (< 2n) is below it.
const twoHopInf int32 = 1<<31 - 1

// twoHopMaxNodes bounds the node count of every TwoHop (FromRaw rejects
// larger ones, NewTwoHopWith panics).  Distances are < n <= 2^29, so:
//   - an unpinned two-hop sum stays < 2n <= 2^30 and cannot overflow int32;
//   - a pinned probe (TwoHopPin) adds a distance to either a real entry,
//     giving a real sum < 2^30 = twoHopPinAbsent, or to the sentinel,
//     giving twoHopPinAbsent + d < 2^30 + 2^29 < 2^31: no overflow, and no
//     real sum reaches the sentinel even on validated-but-hostile labels,
//     so pinned and unpinned queries agree on every oracle.
//
// (Snapshots are capped far lower; this is the API-level backstop.)
const twoHopMaxNodes = 1 << 29

// twoHopPinAbsent marks a hub missing from the pinned target's label in a
// TwoHopPin buffer; see twoHopMaxNodes for why sums with it cannot
// overflow.
const twoHopPinAbsent int32 = 1 << 30

// NewTwoHop builds the exact 2-hop-cover oracle of g using all CPUs.
func NewTwoHop(g *graph.Graph) *TwoHop {
	return NewTwoHopWith(g, TwoHopOptions{})
}

// twoHopMix is the SplitMix64 finaliser, used as the deterministic
// tie-breaking hash of the hub order.
func twoHopMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// twoHopOrder computes the hub order: decreasing degree, ties by a
// deterministic hash of the node id.
func twoHopOrder(g *graph.Graph) []graph.NodeID {
	order := make([]graph.NodeID, g.N())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		// Ties break by a deterministic hash of the node id, not the id
		// itself: on degree-flat graphs (cycles, tori, regular graphs) id
		// order degenerates — consecutive hubs cover almost the same pairs
		// and labels grow towards O(n) — while a pseudo-random order gives
		// the divide-and-conquer covers that keep them logarithmic.
		hi, hj := twoHopMix(uint64(order[i])), twoHopMix(uint64(order[j]))
		if hi != hj {
			return hi < hj
		}
		return order[i] < order[j]
	})
	return order
}

// NewTwoHopWith builds the oracle with the given options.  It returns nil
// when a MaxAvgLabel budget is set and exceeded (see TwoHopOptions).
func NewTwoHopWith(g *graph.Graph, opts TwoHopOptions) *TwoHop {
	n := g.N()
	if n > twoHopMaxNodes {
		panic(fmt.Sprintf("dist: graph of %d nodes exceeds the 2-hop oracle's cap %d", n, twoHopMaxNodes))
	}
	t := &TwoHop{n: int32(n)}
	t.order = twoHopOrder(g)
	if n == 0 {
		t.poff = make([]int64, 1)
		return t
	}
	lab, total, ok := twoHopBuildLabels(g, t.order, opts)
	if !ok {
		return nil
	}
	t.entries = total
	for _, l := range lab {
		t.maxLabel = max(t.maxLabel, len(l))
	}
	t.poff, t.blob = twoHopEncodeLabels(lab, total)
	return t
}

// N returns the number of nodes the oracle covers.
func (t *TwoHop) N() int { return int(t.n) }

// Packed reports true.
//
// Deprecated: labels are always packed.
func (t *TwoHop) Packed() bool { return true }

// Dist implements Source with one merged scan over the two label streams,
// decoding (hub delta, dist) varints on the fly.  Each round advances the
// stream(s) whose current hub is the smaller (both on a match); the scan
// ends when a stream it must advance is exhausted.  Pairs with no common
// hub are in different components and yield graph.Unreachable.
func (t *TwoHop) Dist(u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	i, iEnd := t.poff[u], t.poff[u+1]
	j, jEnd := t.poff[v], t.poff[v+1]
	blob := t.blob
	best := twoHopInf
	hu, hv := int32(-1), int32(-1)
	var du, dv, x int32
	nextU, nextV := true, true
	for {
		if nextU {
			if i >= iEnd {
				break
			}
			x, i = twoHopVarint(blob, i)
			hu += x + 1
			du, i = twoHopVarint(blob, i)
		}
		if nextV {
			if j >= jEnd {
				break
			}
			x, j = twoHopVarint(blob, j)
			hv += x + 1
			dv, j = twoHopVarint(blob, j)
		}
		switch {
		case hu == hv:
			best = min(best, du+dv)
			nextU, nextV = true, true
		case hu < hv:
			nextU, nextV = true, false
		default:
			nextU, nextV = false, true
		}
	}
	if best == twoHopInf {
		return graph.Unreachable
	}
	return best
}

// twoHopVarint decodes the varint at blob[i:], returning its value and
// the index after it; FromRaw validation guarantees every stream is well
// formed and in bounds.  It is what the probe loops call: its inline cost
// (79 under Go 1.24) fits the compiler's budget (80), so the one-byte
// case — most rank deltas, nearly every distance — runs in the loop with
// no call, and only longer varints call twoHopUvarint.  Keep it that
// small; check with go build -gcflags=-m.
func twoHopVarint(blob []byte, i int64) (x int32, next int64) {
	x, next = int32(blob[i]), i+1
	if x >= 0x80 {
		x, next = twoHopUvarint(blob, i)
	}
	return
}

// twoHopUvarint is twoHopVarint's out-of-line multi-byte path (any length
// works).  Kept out of line so the probe loops stay small.
//
//go:noinline
func twoHopUvarint(blob []byte, i int64) (int32, int64) {
	var x int32
	for shift := 0; ; shift += 7 {
		b := blob[i]
		i++
		x |= int32(b&0x7f) << shift
		if b < 0x80 {
			return x, i
		}
	}
}

// twoHopDecodePair decodes one (hub delta, dist) pair at blob[i:],
// returning the absolute hub rank (prev is the previous entry's rank, -1
// before the first).  The cold loops (Label, Unpack) use it.
func twoHopDecodePair(blob []byte, i int64, prev int32) (h, d int32, next int64) {
	delta, i := twoHopVarint(blob, i)
	d, i = twoHopVarint(blob, i)
	return prev + 1 + delta, d, i
}

// twoHopAppendUvarint appends v as a LEB128 varint.
func twoHopAppendUvarint(buf []byte, v uint32) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// twoHopEncodeLabels packs per-node interleaved (rank, dist) pair slices
// into the delta+varint blob representation.
func twoHopEncodeLabels(lab [][]uint64, total int64) (poff []int64, blob []byte) {
	poff = make([]int64, len(lab)+1)
	// Typical entries fit one byte of delta and one of distance.
	blob = make([]byte, 0, 2*total+total/2)
	for v := range lab {
		prev := int32(-1)
		for _, e := range lab[v] {
			rank := int32(e >> 32)
			blob = twoHopAppendUvarint(blob, uint32(rank-prev-1))
			blob = twoHopAppendUvarint(blob, uint32(uint32(e)))
			prev = rank
		}
		poff[v+1] = int64(len(blob))
		lab[v] = nil
	}
	return poff, blob
}

// Label returns node v's label as parallel slices: the hubs (as node ids,
// in increasing hub-rank order) and the exact distances to them.  Tests use
// it to compare builds entry by entry.
func (t *TwoHop) Label(v graph.NodeID) (hubs []graph.NodeID, dists []int32) {
	i, end := t.poff[v], t.poff[v+1]
	prev := int32(-1)
	for i < end {
		var d int32
		prev, d, i = twoHopDecodePair(t.blob, i, prev)
		hubs = append(hubs, t.order[prev])
		dists = append(dists, d)
	}
	return hubs, dists
}

// Unpack decodes the labels into an uncompressed reference Source whose
// Dist is a plain merge over int32 hub and distance arrays.  It is not a
// serving path: benchmarks and tests use it to compare packed probes
// against undecoded ones, in cost and in answers.
func (t *TwoHop) Unpack() Source {
	r := &twoHopRaw{index: make([]int64, t.n+1)}
	r.hubs = make([]int32, 0, t.entries)
	r.dists = make([]int32, 0, t.entries)
	for v := int32(0); v < t.n; v++ {
		i, end := t.poff[v], t.poff[v+1]
		prev := int32(-1)
		for i < end {
			var d int32
			prev, d, i = twoHopDecodePair(t.blob, i, prev)
			r.hubs = append(r.hubs, prev)
			r.dists = append(r.dists, d)
		}
		r.index[v+1] = int64(len(r.hubs))
	}
	return r
}

// twoHopRaw is Unpack's reference form: node v's label is the parallel
// slices hubs[index[v]:index[v+1]] (hub ranks, strictly increasing) and
// dists[index[v]:index[v+1]].
type twoHopRaw struct {
	index       []int64
	hubs, dists []int32
}

// Dist merges the two sorted hub lists.
func (r *twoHopRaw) Dist(u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	i, iEnd := r.index[u], r.index[u+1]
	j, jEnd := r.index[v], r.index[v+1]
	best := twoHopInf
	for i < iEnd && j < jEnd {
		switch hu, hv := r.hubs[i], r.hubs[j]; {
		case hu == hv:
			best = min(best, r.dists[i]+r.dists[j])
			i++
			j++
		case hu < hv:
			i++
		default:
			j++
		}
	}
	if best == twoHopInf {
		return graph.Unreachable
	}
	return best
}

// RawPacked exposes the oracle's arrays as shared, read-only slices: the
// hub order (rank -> node), the per-node byte offsets (length N+1) and the
// varint blob.  Callers must not modify them.  This is the serialisation
// entry point: the snapshot writer emits the arrays verbatim and
// TwoHopPackedFromRaw reconstructs an identical oracle without re-running
// the pruned-labeling build.
func (t *TwoHop) RawPacked() (order []graph.NodeID, poff []int64, blob []byte) {
	return t.order, t.poff, t.blob
}

// twoHopValidateOrder checks that order is a permutation of [0, n).
func twoHopValidateOrder(n int, order []graph.NodeID) error {
	if len(order) != n {
		return fmt.Errorf("dist: hub order has %d entries, want n = %d", len(order), n)
	}
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("dist: hub order entry %d = %d out of range [0,%d)", i, v, n)
		}
		if seen[v] {
			return fmt.Errorf("dist: hub order repeats node %d", v)
		}
		seen[v] = true
	}
	return nil
}

// TwoHopFromRaw builds an oracle from labels in the legacy uncompressed
// layout (a CSR index over parallel hub-rank and distance arrays, as old
// snapshots store them), encoding them into the packed streams.  It keeps
// order (which may alias a read-only snapshot buffer) and copies nothing
// else.  It verifies every structural invariant the build establishes —
// order is a permutation of the nodes, the index is monotone from 0 and
// consistent with the label arrays, each node's hub ranks are strictly
// increasing and in range, and distances lie in [0, n) (an unweighted
// n-node graph has diameter at most n-1, and the bound keeps two-hop sums
// below 2n, so a hostile label can never overflow a Dist query into a
// negative "exact" distance) — so corrupted or hostile serialised labels
// are rejected in O(n + entries).  Distance *correctness* (that the labels
// form an exact 2-hop cover of this graph) is not re-derivable cheaply;
// snapshot checksums guard integrity in transit and the conformance suite
// pins freshly-written snapshots to BFS.
func TwoHopFromRaw(n int, order []graph.NodeID, index []int64, hubs, dists []int32) (*TwoHop, error) {
	if n < 0 {
		return nil, fmt.Errorf("dist: negative node count %d", n)
	}
	if n > twoHopMaxNodes {
		return nil, fmt.Errorf("dist: node count %d exceeds the supported cap %d", n, twoHopMaxNodes)
	}
	if err := twoHopValidateOrder(n, order); err != nil {
		return nil, err
	}
	if len(index) != n+1 {
		return nil, fmt.Errorf("dist: label index has length %d, want n+1 = %d", len(index), n+1)
	}
	if n >= 0 && len(index) > 0 && index[0] != 0 {
		return nil, fmt.Errorf("dist: label index starts at %d, want 0", index[0])
	}
	if index[n] != int64(len(hubs)) || len(hubs) != len(dists) {
		return nil, fmt.Errorf("dist: label index promises %d entries, arrays hold %d hubs / %d dists",
			index[n], len(hubs), len(dists))
	}
	if v, ok := twoHopMonotone(index); !ok {
		return nil, fmt.Errorf("dist: label index decreases at node %d (%d > %d)", v, index[v], index[v+1])
	}
	maxLabel := 0
	poff := make([]int64, n+1)
	// Typical entries fit one byte of delta and one of distance.
	blob := make([]byte, 0, 2*len(hubs)+len(hubs)/2)
	for v := 0; v < n; v++ {
		lo, hi := index[v], index[v+1]
		maxLabel = max(maxLabel, int(hi-lo))
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			h := hubs[i]
			if h < 0 || int(h) >= n {
				return nil, fmt.Errorf("dist: node %d references hub rank %d out of range [0,%d)", v, h, n)
			}
			if h <= prev {
				return nil, fmt.Errorf("dist: node %d hub ranks not strictly increasing (%d after %d)", v, h, prev)
			}
			if dists[i] < 0 || int64(dists[i]) >= int64(n) {
				return nil, fmt.Errorf("dist: node %d has label distance %d out of range [0,%d)", v, dists[i], n)
			}
			blob = twoHopAppendUvarint(blob, uint32(h-prev-1))
			blob = twoHopAppendUvarint(blob, uint32(dists[i]))
			prev = h
		}
		poff[v+1] = int64(len(blob))
	}
	return &TwoHop{n: int32(n), entries: int64(len(hubs)), maxLabel: maxLabel, order: order,
		poff: poff, blob: blob}, nil
}

// TwoHopPackedFromRaw reconstructs an oracle from arrays previously
// obtained via RawPacked, taking ownership of the slices.  It fully decodes
// every label stream once, enforcing the same invariants as TwoHopFromRaw —
// permutation order, monotone offsets, strictly increasing in-range hub
// ranks, distances in [0, n) — plus varint well-formedness: every stream
// must decode to exactly its declared byte length with no truncated or
// over-long varint, so a hostile blob can never send a query decode out of
// bounds.
//
// The label streams are walked over node ranges on GOMAXPROCS goroutines;
// the error is the one a serial walk in node order meets first.
func TwoHopPackedFromRaw(n int, order []graph.NodeID, poff []int64, blob []byte) (*TwoHop, error) {
	return twoHopPackedFromRaw(n, order, poff, blob, runtime.GOMAXPROCS(0))
}

// twoHopValidateChunk is the node range a goroutine of the label walk
// claims at a time; a graph of at most this many nodes is walked on one
// goroutine.
const twoHopValidateChunk = 1024

// twoHopWalkTally is one goroutine's share of the label statistics.
type twoHopWalkTally struct {
	entries  int64
	maxLabel int
}

func twoHopPackedFromRaw(n int, order []graph.NodeID, poff []int64, blob []byte, workers int) (*TwoHop, error) {
	if n < 0 {
		return nil, fmt.Errorf("dist: negative node count %d", n)
	}
	if n > twoHopMaxNodes {
		return nil, fmt.Errorf("dist: node count %d exceeds the supported cap %d", n, twoHopMaxNodes)
	}
	if err := twoHopValidateOrder(n, order); err != nil {
		return nil, err
	}
	if len(poff) != n+1 {
		return nil, fmt.Errorf("dist: packed label index has length %d, want n+1 = %d", len(poff), n+1)
	}
	if poff[0] != 0 {
		return nil, fmt.Errorf("dist: packed label index starts at %d, want 0", poff[0])
	}
	if poff[n] != int64(len(blob)) {
		return nil, fmt.Errorf("dist: packed label index promises %d blob bytes, blob holds %d", poff[n], len(blob))
	}
	if v, ok := twoHopMonotone(poff); !ok {
		return nil, fmt.Errorf("dist: packed label index decreases at node %d (%d > %d)", v, poff[v], poff[v+1])
	}
	tally := make([]twoHopWalkTally, max(workers, 1))
	if err := par.Ranges(n, twoHopValidateChunk, workers, func(w, lo, hi int) error {
		return twoHopWalkLabels(n, poff, blob, lo, hi, &tally[w])
	}); err != nil {
		return nil, err
	}
	var entries int64
	maxLabel := 0
	for _, t := range tally {
		entries += t.entries
		maxLabel = max(maxLabel, t.maxLabel)
	}
	return &TwoHop{n: int32(n), entries: entries, maxLabel: maxLabel, order: order,
		poff: poff, blob: blob}, nil
}

// twoHopWalkLabels decodes the label streams of nodes [from, to), adding
// their statistics to t, and returns the first fault in node order.  Each
// stream is read by twoHopFastLabel, and one it cannot finish is walked
// again by twoHopCheckLabel, which names the fault exactly.
func twoHopWalkLabels(n int, poff []int64, blob []byte, from, to int, t *twoHopWalkTally) error {
	var entries int64
	maxLabel := 0
	for v := from; v < to; v++ {
		size, ok := twoHopFastLabel(int64(n), blob, poff[v], poff[v+1])
		if !ok {
			var err error
			if size, err = twoHopCheckLabel(n, v, blob, poff[v], poff[v+1]); err != nil {
				return err
			}
		}
		entries += int64(size)
		maxLabel = max(maxLabel, size)
	}
	t.entries += entries
	t.maxLabel = max(t.maxLabel, maxLabel)
	return nil
}

// twoHopFastLabel counts the entries of the label stream blob[lo:hi),
// decoding rank deltas of up to three bytes and distances of up to two
// inline (one byte holds most rank deltas and nearly every distance,
// three the rank deltas of a large sparse graph; none can exceed 31
// bits).  It makes no call, so the loop keeps its state in registers.
// ok is false for a stream it cannot finish: a longer varint, one cut by
// the stream's end, or a rank or distance out of range.
func twoHopFastLabel(n int64, blob []byte, lo, hi int64) (size int, ok bool) {
	prev := int64(-1)
	for i := lo; i < hi; {
		var delta, d int64
		if b := blob[i]; b < 0x80 {
			delta, i = int64(b), i+1
		} else if i+2 < hi && blob[i+1] < 0x80 {
			delta, i = int64(b&0x7f)|int64(blob[i+1])<<7, i+2
		} else if i+2 < hi && blob[i+2] < 0x80 {
			delta, i = int64(b&0x7f)|int64(blob[i+1]&0x7f)<<7|int64(blob[i+2])<<14, i+3
		} else {
			return 0, false
		}
		if i < hi && blob[i] < 0x80 {
			d, i = int64(blob[i]), i+1
		} else if i+1 < hi && blob[i+1] < 0x80 {
			d, i = int64(blob[i]&0x7f)|int64(blob[i+1])<<7, i+2
		} else {
			return 0, false
		}
		prev += 1 + delta
		if prev >= n || d >= n {
			return 0, false
		}
		size++
	}
	return size, true
}

// twoHopCheckLabel walks node v's label stream blob[lo:hi) decoding every
// varint through twoHopCheckedUvarint, and returns its entry count or its
// first fault.
func twoHopCheckLabel(n, v int, blob []byte, lo, hi int64) (int, error) {
	prev := int64(-1)
	size := 0
	for i := lo; i < hi; {
		delta, ni, err := twoHopCheckedUvarint(blob, i, hi)
		if err != nil {
			return 0, fmt.Errorf("dist: node %d label stream: %w", v, err)
		}
		d, ni, err := twoHopCheckedUvarint(blob, ni, hi)
		if err != nil {
			return 0, fmt.Errorf("dist: node %d label stream: %w", v, err)
		}
		h := prev + 1 + int64(delta)
		if h >= int64(n) {
			return 0, fmt.Errorf("dist: node %d references hub rank %d out of range [0,%d)", v, h, n)
		}
		if int64(d) >= int64(n) {
			return 0, fmt.Errorf("dist: node %d has label distance %d out of range [0,%d)", v, d, n)
		}
		prev, i = h, ni
		size++
	}
	return size, nil
}

// twoHopMonotone reports the first node v whose label offsets decrease
// (index[v] > index[v+1]).  FromRaw checks the whole index before reading
// any label, so with index[0] = 0 and index[n] = the array length every
// node's range lies inside the arrays.
func twoHopMonotone(index []int64) (v int, ok bool) {
	for v := 0; v+1 < len(index); v++ {
		if index[v] > index[v+1] {
			return v, false
		}
	}
	return 0, true
}

// twoHopCheckedUvarint decodes one bounds- and range-checked varint from
// blob[i:end): it must terminate before end and fit 31 bits.
func twoHopCheckedUvarint(blob []byte, i, end int64) (v uint32, next int64, err error) {
	var x uint64
	for shift := 0; ; shift += 7 {
		if i >= end {
			return 0, 0, fmt.Errorf("truncated varint")
		}
		b := blob[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if shift >= 28 {
			return 0, 0, fmt.Errorf("varint exceeds 31 bits")
		}
	}
	if x > 1<<31-1 {
		return 0, 0, fmt.Errorf("varint value %d exceeds 31 bits", x)
	}
	return uint32(x), i, nil
}

// AvgLabel returns the mean label size per node.
func (t *TwoHop) AvgLabel() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.entries) / float64(t.n)
}

// MaxLabel returns the largest single-node label size, recorded when the
// labels are built or validated.
func (t *TwoHop) MaxLabel() int { return t.maxLabel }

// MemoryBytes returns the approximate resident size of the oracle.
func (t *TwoHop) MemoryBytes() int64 {
	return int64(len(t.blob)) + int64(len(t.poff))*8 + int64(len(t.order))*4
}
