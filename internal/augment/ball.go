package augment

import (
	"fmt"
	"runtime"
	"sync"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// BallScheme is the paper's Theorem 4 universal augmentation scheme, the
// one that overcomes the √n barrier:
//
//	every node u independently picks a scale k uniformly in {1..⌈log n⌉}
//	and then a long-range contact uniformly at random in the ball
//	B(u, 2^k) of radius 2^k around u.
//
// Greedy routing under this scheme takes Õ(n^{1/3}) expected steps on every
// n-node graph.  The scheme is "a posteriori": drawing a contact requires
// knowing the ball, i.e. the structure of G around u.
type BallScheme struct {
	// FixedScale, when non-zero, disables the uniform choice of k and always
	// uses the given scale.  This is the E10 ablation showing that mixing all
	// scales is essential.
	FixedScale int
	// RankUniform, when true, picks the contact by first choosing a distance
	// d uniformly in [0, 2^k] and then a uniform node at distance exactly d
	// (if any), instead of uniformly over the ball.  Second E10 ablation.
	RankUniform bool
	// MaxPrecomputeNodes bounds the graph size up to which the instance
	// collapses the scale mixture into one per-node alias table (O(1) draws
	// after a node's first), each 6·n to 18·n bytes (see
	// DefaultPrecomputeNodes).  Beyond it every draw re-enumerates a ball
	// with a pooled buffer.  Zero means DefaultPrecomputeNodes; negative disables
	// the tables.  The RankUniform ablation always uses the enumeration
	// path.
	MaxPrecomputeNodes int
	// EagerPrepare builds every node's alias table already in Prepare with
	// a parallel all-nodes pass instead of lazily on first draw.
	EagerPrepare bool
}

// NewBallScheme returns the Theorem 4 scheme.
func NewBallScheme() *BallScheme { return &BallScheme{} }

// Name implements Scheme.
func (s *BallScheme) Name() string {
	switch {
	case s.FixedScale > 0 && s.RankUniform:
		return fmt.Sprintf("ball-fixed%d-rank", s.FixedScale)
	case s.FixedScale > 0:
		return fmt.Sprintf("ball-fixed%d", s.FixedScale)
	case s.RankUniform:
		return "ball-rank"
	default:
		return "ball"
	}
}

// ballInstance carries the read-only graph, optional per-node alias tables
// over the composite contact distribution, and a pool of dist.BallBuffer
// scratch buffers for ball enumeration (row fills and the BFS fallback).
type ballInstance struct {
	g        *graph.Graph
	maxScale int
	fixed    int
	rankUnif bool
	// tables holds the per-node alias rows over φ_u (nil above the
	// precompute threshold and for the RankUniform ablation).
	tables    *sampler.LazyRows
	scratches sync.Pool
}

// Prepare implements Scheme.  Within the precompute threshold (and outside
// the RankUniform ablation) the instance folds each node's uniform-scale
// ball mixture into one alias table — built lazily on the node's first
// draw, or all up front with EagerPrepare — making Contact a single O(1)
// draw.  Otherwise Contact re-enumerates the drawn ball from a pooled
// buffer.
func (s *BallScheme) Prepare(g *graph.Graph) (Instance, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("augment: ball scheme needs a non-empty graph")
	}
	maxScale := dist.CeilLog2(n)
	if maxScale < 1 {
		maxScale = 1
	}
	if s.FixedScale > maxScale {
		return nil, fmt.Errorf("augment: fixed scale %d exceeds ⌈log n⌉ = %d", s.FixedScale, maxScale)
	}
	inst := &ballInstance{g: g, maxScale: maxScale, fixed: s.FixedScale, rankUnif: s.RankUniform}
	inst.scratches.New = func() any { return dist.NewBallBuffer(n) }
	if !s.RankUniform && n <= precomputeLimit(s.MaxPrecomputeNodes) {
		inst.tables = sampler.NewLazyRows(n, n, inst)
		if s.EagerPrepare {
			inst.tables.BuildAll(runtime.GOMAXPROCS(0))
		}
	}
	return inst, nil
}

// FillRow implements sampler.RowFiller with the composite distribution φ_u
// of node u's contact: each admissible scale k contributes
// 1/(scales·|B_k(u)|) to every member of B(u, 2^k).  The ball always
// contains u itself, whose entry carries the "no link" mass, exactly as the
// sampling process does.
//
// A node's weight depends only on the smallest admissible scale whose ball
// holds it, φ_u(v) = Σ_{k ≥ r(v)} pScale/|B_k|, a suffix sum over scales.
// So one BFS to the largest radius writes each reached node's class code
// 1 + r(v) over the raw CSR, using the codes as its visited mark; nodes
// outside every ball keep class 0, weight 0.  The class table holds the
// suffix sums.
func (b *ballInstance) FillRow(u int32, cls, queue []int32, buf []float64) []float64 {
	loK, hiK := 1, b.maxScale
	if b.fixed > 0 {
		loK, hiK = b.fixed, b.fixed
	}
	off, adj := b.g.RawCSR()
	// counts[c] is the number of nodes of class c; classes 1+loK..1+hiK.
	// maxScale = ⌈log₂ n⌉ ≤ 31 for int32 node ids, so fixed-size stacks
	// keep row builds allocation free.
	var counts [33]int
	k := loK
	cls[u] = int32(1 + k)
	counts[1+k] = 1
	queue[0] = u
	head, tail := 0, 1
	maxRadius := b.scaleRadius(hiK)
	for d := int32(1); head < tail && d <= maxRadius; d++ {
		// Level d: the smallest admissible scale only ever moves forward.
		for d > b.scaleRadius(k) {
			k++
		}
		c := int32(1 + k)
		for end := tail; head < end; head++ {
			x := queue[head]
			for _, v := range adj[off[x]:off[x+1]] {
				if cls[v] == 0 {
					cls[v] = c
					queue[tail] = v
					tail++
				}
			}
		}
		counts[c] += tail - head
	}
	// vals[1+k] = Σ_{j ≥ k} pScale/|B_j(u)|, with |B_j| the number of nodes
	// of class at most 1+j.
	pScale := 1.0 / float64(hiK-loK+1)
	var sizes [32]int
	size := 0
	for j := loK; j <= hiK; j++ {
		size += counts[1+j]
		sizes[j] = size
	}
	vals := buf[:2+hiK]
	clear(vals[:1+loK])
	suffix := 0.0
	for j := hiK; j >= loK; j-- {
		suffix += pScale / float64(sizes[j])
		vals[1+j] = suffix
	}
	return vals
}

// scaleRadius returns the ball radius of scale k: 2^k, with n standing in
// when the shift would overflow (effectively unbounded).  The raw 2^k is
// kept even when it exceeds n because the RankUniform ablation draws a
// distance uniformly in [0, radius], so clamping would change its law.
func (b *ballInstance) scaleRadius(k int) int32 {
	if k < 31 {
		return int32(1) << uint(k)
	}
	return int32(b.g.N())
}

// Contact implements Instance.
func (b *ballInstance) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	if b.tables != nil {
		return b.tables.Draw(u, rng)
	}
	k := b.fixed
	if k == 0 {
		k = 1 + rng.Intn(b.maxScale)
	}
	radius := b.scaleRadius(k)
	sc := b.scratches.Get().(*dist.BallBuffer)
	defer b.scratches.Put(sc)
	nodes, dists := sc.Ball(b.g, u, radius)
	if b.rankUnif {
		// Ablation: uniform over distances then uniform over the sphere.
		d := int32(rng.Intn(int(radius) + 1))
		// Collect nodes at distance exactly d; fall back to the ball when the
		// sphere is empty (d beyond the reachable range).
		lo, hi := -1, -1
		for i, dd := range dists {
			if dd == d {
				if lo == -1 {
					lo = i
				}
				hi = i
			}
		}
		if lo >= 0 {
			return nodes[lo+rng.Intn(hi-lo+1)]
		}
		return nodes[rng.Intn(len(nodes))]
	}
	return nodes[rng.Intn(len(nodes))]
}

// ContactDistribution implements Distributional using the paper's formula
//
//	φ_u(v) = (1/⌈log n⌉) · Σ_{k ≥ r(v)} 1/|B_k(u)|
//
// where r(v) is the smallest scale k ∈ {1..⌈log n⌉} with v ∈ B(u, 2^k) (for
// the FixedScale ablation only that scale contributes).  The RankUniform
// ablation's distribution is assembled per distance class instead.
func (b *ballInstance) ContactDistribution(u graph.NodeID) []float64 {
	n := b.g.N()
	phi := make([]float64, n)
	if !b.rankUnif {
		cls := make([]int32, n)
		vals := b.FillRow(u, cls, make([]int32, n), make([]float64, sampler.RowClasses))
		for v, c := range cls {
			phi[v] = vals[c]
		}
		return phi
	}
	sc := b.scratches.Get().(*dist.BallBuffer)
	defer b.scratches.Put(sc)

	scales := make([]int, 0, b.maxScale)
	if b.fixed > 0 {
		scales = append(scales, b.fixed)
	} else {
		for k := 1; k <= b.maxScale; k++ {
			scales = append(scales, k)
		}
	}
	pScale := 1.0 / float64(len(scales))
	for _, k := range scales {
		radius := b.scaleRadius(k)
		nodes, dists := sc.Ball(b.g, u, radius)
		// Uniform over distances 0..radius, then uniform on the sphere at
		// that distance; empty spheres fall back to the whole ball.
		counts := make(map[int32]int, 8)
		for _, d := range dists {
			counts[d]++
		}
		emptySpheres := 0
		for d := int32(0); d <= radius; d++ {
			if counts[d] == 0 {
				emptySpheres++
			}
		}
		pDist := 1.0 / float64(radius+1)
		fallback := float64(emptySpheres) * pDist / float64(len(nodes))
		for i, v := range nodes {
			phi[v] += pScale * (pDist/float64(counts[dists[i]]) + fallback)
		}
	}
	return phi
}
