package augment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"navaug/internal/graph"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// HarmonicScheme is the distance-harmonic augmentation: the long-range
// contact of u is node v ≠ u with probability proportional to
// dist_G(u,v)^(-Exponent).  With Exponent equal to the dimension it is the
// scheme Kleinberg proved polylog-navigable on d-dimensional meshes [13];
// the paper uses it as the canonical example of a scheme that is excellent
// on specific classes but not universal (it degrades on paths and trees when
// the exponent does not match the growth rate).
type HarmonicScheme struct {
	// Exponent is the decay exponent r in Pr(u→v) ∝ dist(u,v)^-r.
	Exponent float64
	// MaxPrecomputeNodes bounds the graph size up to which the instance
	// keeps per-node alias tables (O(1) draws after a node's first).
	// Beyond it every draw falls back to bounded-memory per-draw sampling.
	// Zero means DefaultPrecomputeNodes; negative disables the tables
	// entirely.
	MaxPrecomputeNodes int
	// EagerPrepare builds every node's alias table already in Prepare with
	// a parallel all-nodes BFS pass, instead of lazily on each node's first
	// draw.  Worth it when far more than n contacts will be drawn (exact
	// DPs, distribution tests, very long simulations).
	EagerPrepare bool
}

// DefaultPrecomputeNodes is the default graph-size ceiling for the per-node
// alias tables of the harmonic and ball schemes.  A table row costs 12·n
// bytes and is allocated only for a node drawn from, so at this size an
// instance holds at most ≈200 MiB, when every row is built.  Moving the
// ceiling moves graphs between the table and fallback paths, which consume
// the RNG differently, so it would change every seed-fixed report.
const DefaultPrecomputeNodes = 4096

// NewHarmonicScheme returns the distance-harmonic scheme with exponent r.
func NewHarmonicScheme(r float64) *HarmonicScheme { return &HarmonicScheme{Exponent: r} }

// Name implements Scheme.
func (s *HarmonicScheme) Name() string { return fmt.Sprintf("harmonic-r%g", s.Exponent) }

type harmonicInstance struct {
	g        *graph.Graph
	exponent float64
	// powTable[d] memoises d^-r over every distance the graph can realise
	// (powTable[0] = 0 so "self" contributes no weight), shared by the
	// table and fallback paths.
	powTable []float64
	// tables holds the per-node alias rows (nil above the precompute
	// threshold): row u is the harmonic distribution of u's contact.
	tables *sampler.LazyRows
	// scratch pools the BFS buffers used by row fills and by the fallback
	// per-draw sampling path.
	scratch sync.Pool
}

type harmonicScratch struct {
	dist    []int32
	queue   []int32
	weights []float64
}

// precomputeLimit resolves the MaxPrecomputeNodes knob shared by the
// harmonic and ball schemes.
func precomputeLimit(configured int) int {
	switch {
	case configured == 0:
		return DefaultPrecomputeNodes
	case configured < 0:
		return 0
	default:
		return configured
	}
}

// Prepare implements Scheme.  Within the precompute threshold the instance
// carries one Walker alias table per node — filled lazily on the node's
// first draw (or all up front with EagerPrepare), after which Contact is a
// single O(1) table draw.  Beyond the threshold the instance keeps the
// bounded-memory per-draw sampling path.
func (s *HarmonicScheme) Prepare(g *graph.Graph) (Instance, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("augment: harmonic scheme needs a non-empty graph")
	}
	if s.Exponent < 0 || math.IsNaN(s.Exponent) {
		return nil, fmt.Errorf("augment: harmonic exponent must be >= 0, got %g", s.Exponent)
	}
	inst := &harmonicInstance{g: g, exponent: s.Exponent}
	// Distances are at most n-1, so one table covers every pow the scheme
	// can ever need; building it is O(n) math.Pow calls, paid once.
	inst.powTable = make([]float64, n)
	for d := 1; d < n; d++ {
		inst.powTable[d] = math.Pow(float64(d), -s.Exponent)
	}
	inst.scratch.New = func() any {
		return &harmonicScratch{
			dist:    make([]int32, n),
			queue:   make([]int32, 0, n),
			weights: make([]float64, n),
		}
	}
	if n <= precomputeLimit(s.MaxPrecomputeNodes) {
		inst.tables = sampler.NewLazyRows(n, n, inst)
		if s.EagerPrepare {
			inst.tables.BuildAll(runtime.GOMAXPROCS(0))
		}
	}
	return inst, nil
}

// FillRow implements sampler.RowFiller: one BFS from u over the raw CSR
// writes each reached node's distance as its class code, and the class
// table is powTable, so the row's weights are dist(u,·)^-r.  u itself and
// unreachable nodes keep class 0, weight 0.
func (h *harmonicInstance) FillRow(u int32, cls, queue []int32, _ []float64) []float64 {
	off, adj := h.g.RawCSR()
	queue[0] = u
	tail := 1
	for head := 0; head < tail; head++ {
		x := queue[head]
		d := cls[x] + 1
		for _, v := range adj[off[x]:off[x+1]] {
			if cls[v] == 0 && v != u {
				cls[v] = d
				queue[tail] = v
				tail++
			}
		}
	}
	return h.powTable
}

// fillWeights runs one BFS from u and fills weights with the unnormalised
// harmonic weights dist(u,·)^-r (0 for u itself and unreachable nodes),
// returning the total weight.
func (h *harmonicInstance) fillWeights(u graph.NodeID, sc *harmonicScratch, weights []float64) float64 {
	for i := range sc.dist {
		sc.dist[i] = graph.Unreachable
	}
	h.g.BFSInto(u, sc.dist, sc.queue)
	total := 0.0
	for v, d := range sc.dist {
		if d <= 0 { // u itself or unreachable
			weights[v] = 0
			continue
		}
		w := h.powTable[d]
		weights[v] = w
		total += w
	}
	return total
}

// ContactDistribution implements Distributional: probabilities proportional
// to dist(u,·)^-r over all reachable nodes other than u (u keeps the mass
// only when it has no reachable neighbours at all).
func (h *harmonicInstance) ContactDistribution(u graph.NodeID) []float64 {
	n := h.g.N()
	out := make([]float64, n)
	d := h.g.BFS(u)
	total := 0.0
	for v, dv := range d {
		if dv <= 0 {
			continue
		}
		w := h.powTable[dv]
		out[v] = w
		total += w
	}
	if total == 0 {
		out[u] = 1
		return out
	}
	for v := range out {
		out[v] /= total
	}
	return out
}

// Contact implements Instance.  With tables present it is one O(1) alias
// draw (the node's row is built on its first draw); otherwise each draw
// runs one BFS from u and samples via a linear CDF scan.
func (h *harmonicInstance) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	if h.tables != nil {
		return h.tables.Draw(u, rng)
	}
	sc := h.scratch.Get().(*harmonicScratch)
	defer h.scratch.Put(sc)
	total := h.fillWeights(u, sc, sc.weights)
	if total == 0 {
		return u // isolated node: no candidates
	}
	x := rng.Float64() * total
	acc := 0.0
	for v, w := range sc.weights {
		if w == 0 {
			continue
		}
		acc += w
		if x < acc {
			return graph.NodeID(v)
		}
	}
	// Floating point slack: fall back to the last positive-weight node.
	for v := len(sc.weights) - 1; v >= 0; v-- {
		if sc.weights[v] > 0 {
			return graph.NodeID(v)
		}
	}
	return u
}
