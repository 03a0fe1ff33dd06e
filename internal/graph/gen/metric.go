package gen

import (
	"math/bits"
	"strconv"
	"strings"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// This file gives the structured generator families their closed-form
// ("analytic") distance metrics: dist.Source implementations that answer
// Dist(u, v) in O(1) time and O(1) memory from the family's size parameters
// alone, with no BFS and no per-target field.  This is what makes routing
// experiments at n >= 10^6 feasible — the per-query cost no longer scales
// with the graph.
//
// Every family registers its metric in a name-keyed registry: the
// constructors stamp a canonical name ("torus-1000x1000") on the graphs
// they build, and MetricFor parses that name back into the metric.  The
// registry is the single source of truth for which families are analytic;
// metric_test.go exhaustively checks every registered metric against BFS,
// so a family whose closed form drifts from its generator fails loudly.
//
// Vertex-transitive families (cycle, torus, hypercube, complete) register
// metrics that additionally implement dist.Transitive — the distance
// profile plus uniform sphere sampling that the analytic contact samplers
// in internal/augment build on.
//
// The Metric and TransitiveMetric interfaces here mirror dist.Source and
// dist.Transitive method-for-method (kept local so that gen does not
// import dist, whose own tests build graphs through gen); values satisfy
// the dist interfaces structurally and convert implicitly.

// Metric mirrors dist.Source: an O(1) point-to-point distance query.
type Metric interface {
	Dist(u, v graph.NodeID) int32
}

// TransitiveMetric mirrors dist.Transitive: a Metric over a
// vertex-transitive graph exposing its distance profile and uniform sphere
// sampling.
type TransitiveMetric interface {
	Metric
	N() int
	Eccentricity() int32
	SphereSize(d int32) float64
	SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID
}

// metricFamily is one registry entry: Family is the constructor's name
// prefix (up to the first '-'), parse turns the parameter suffix into the
// metric.
type metricFamily struct {
	family string
	parse  func(rest string) (Metric, bool)
}

// sized is implemented by every metric here so MetricFor can reject a
// name-collision with a graph of the wrong size.
type sized interface {
	Metric
	N() int
}

var metricRegistry []metricFamily

func registerMetric(family string, parse func(rest string) (Metric, bool)) {
	metricRegistry = append(metricRegistry, metricFamily{family: family, parse: parse})
}

// MetricFor returns the closed-form distance metric of g, keyed by the
// canonical family name its generator stamped on it, or (nil, false) when
// the family has no registered metric (random families, graphs built
// elsewhere, renamed graphs).  A parsed metric whose node count does not
// match g is rejected, so a renamed or truncated graph can never silently
// pick up a wrong metric.
func MetricFor(g *graph.Graph) (Metric, bool) {
	name := g.Name()
	for _, e := range metricRegistry {
		rest, ok := strings.CutPrefix(name, e.family+"-")
		if !ok {
			continue
		}
		src, ok := e.parse(rest)
		if !ok {
			continue
		}
		if s, okSized := src.(sized); !okSized || s.N() != g.N() {
			return nil, false
		}
		return src, true
	}
	return nil, false
}

func init() {
	registerMetric("path", func(rest string) (Metric, bool) {
		n, ok := parseInt(rest)
		if !ok || n < 1 {
			return nil, false
		}
		return PathMetric(n), true
	})
	registerMetric("cycle", func(rest string) (Metric, bool) {
		n, ok := parseInt(rest)
		if !ok || n < 3 {
			return nil, false
		}
		return CycleMetric(n), true
	})
	registerMetric("complete", func(rest string) (Metric, bool) {
		n, ok := parseInt(rest)
		if !ok || n < 1 {
			return nil, false
		}
		return CompleteMetric(n), true
	})
	registerMetric("star", func(rest string) (Metric, bool) {
		n, ok := parseInt(rest)
		if !ok || n < 1 {
			return nil, false
		}
		return StarMetric(n), true
	})
	registerMetric("grid", func(rest string) (Metric, bool) {
		p, ok := parseInts(rest, "x", 2)
		if !ok || p[0] < 1 || p[1] < 1 {
			return nil, false
		}
		return Grid2DMetric(p[0], p[1]), true
	})
	registerMetric("torus", func(rest string) (Metric, bool) {
		p, ok := parseInts(rest, "x", 2)
		if !ok || p[0] < 3 || p[1] < 3 {
			return nil, false
		}
		return Torus2DMetric(p[0], p[1]), true
	})
	registerMetric("grid3d", func(rest string) (Metric, bool) {
		p, ok := parseInts(rest, "x", 3)
		if !ok || p[0] < 1 || p[1] < 1 || p[2] < 1 {
			return nil, false
		}
		return Grid3DMetric(p[0], p[1], p[2]), true
	})
	registerMetric("hypercube", func(rest string) (Metric, bool) {
		d, ok := parseInt(rest)
		if !ok || d < 0 || d > 30 {
			return nil, false
		}
		return HypercubeMetric(d), true
	})
	registerMetric("tree", func(rest string) (Metric, bool) {
		// "tree-%dary-d%d": arity then depth.
		aryStr, depthStr, ok := strings.Cut(rest, "ary-d")
		if !ok {
			return nil, false
		}
		arity, ok1 := parseInt(aryStr)
		depth, ok2 := parseInt(depthStr)
		if !ok1 || !ok2 || arity < 1 || depth < 0 {
			return nil, false
		}
		n, levelSize := 1, 1
		for d := 0; d < depth; d++ {
			levelSize *= arity
			n += levelSize
		}
		return TreeMetric(arity, n), true
	})
	registerMetric("bintree", func(rest string) (Metric, bool) {
		n, ok := parseInt(rest)
		if !ok || n < 1 {
			return nil, false
		}
		return TreeMetric(2, n), true
	})
}

// parseInt parses a full-string non-negative decimal integer.
func parseInt(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// parseInts parses exactly count sep-separated integers spanning the whole
// string.
func parseInts(s, sep string, count int) ([]int, bool) {
	parts := strings.Split(s, sep)
	if len(parts) != count {
		return nil, false
	}
	out := make([]int, count)
	for i, p := range parts {
		v, ok := parseInt(p)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Path, grids
// ---------------------------------------------------------------------------

type pathMetric struct{ n int }

// PathMetric returns the closed-form metric of Path(n): |u - v|.
func PathMetric(n int) Metric { return pathMetric{n: n} }

func (m pathMetric) N() int { return m.n }

func (m pathMetric) Dist(u, v graph.NodeID) int32 {
	if u > v {
		u, v = v, u
	}
	return v - u
}

type grid2dMetric struct{ rows, cols int }

// Grid2DMetric returns the closed-form metric of Grid2D(rows, cols): the
// Manhattan distance between cell coordinates.
func Grid2DMetric(rows, cols int) Metric { return grid2dMetric{rows: rows, cols: cols} }

func (m grid2dMetric) N() int { return m.rows * m.cols }

func (m grid2dMetric) Dist(u, v graph.NodeID) int32 {
	c := int32(m.cols)
	r1, c1 := u/c, u%c
	r2, c2 := v/c, v%c
	return absi32(r1-r2) + absi32(c1-c2)
}

type grid3dMetric struct{ x, y, z int }

// Grid3DMetric returns the closed-form metric of Grid3D(x, y, z).
func Grid3DMetric(x, y, z int) Metric { return grid3dMetric{x: x, y: y, z: z} }

func (m grid3dMetric) N() int { return m.x * m.y * m.z }

func (m grid3dMetric) Dist(u, v graph.NodeID) int32 {
	yz := int32(m.y) * int32(m.z)
	z := int32(m.z)
	i1, r1 := u/yz, u%yz
	i2, r2 := v/yz, v%yz
	return absi32(i1-i2) + absi32(r1/z-r2/z) + absi32(r1%z-r2%z)
}

type starMetric struct{ n int }

// StarMetric returns the closed-form metric of Star(n): 1 through the
// centre (node 0), 2 between leaves.
func StarMetric(n int) Metric { return starMetric{n: n} }

func (m starMetric) N() int { return m.n }

func (m starMetric) Dist(u, v graph.NodeID) int32 {
	switch {
	case u == v:
		return 0
	case u == 0 || v == 0:
		return 1
	default:
		return 2
	}
}

// ---------------------------------------------------------------------------
// Trees (balanced arity trees and heap-numbered binary trees)
// ---------------------------------------------------------------------------

type treeMetric struct {
	arity int
	n     int
}

// TreeMetric returns the closed-form metric of the arity-ary tree with
// contiguous breadth-first child numbering (children of v are
// arity*v+1 .. arity*v+arity), which covers both BalancedTree and
// BinaryTree.  Queries climb to the lowest common ancestor, so Dist costs
// O(depth) = O(log_arity n) rather than strictly O(1); still field-free and
// allocation-free.
func TreeMetric(arity, n int) Metric { return treeMetric{arity: arity, n: n} }

func (m treeMetric) N() int { return m.n }

func (m treeMetric) parent(v graph.NodeID) graph.NodeID {
	return (v - 1) / int32(m.arity)
}

func (m treeMetric) depth(v graph.NodeID) int32 {
	var d int32
	for v != 0 {
		v = m.parent(v)
		d++
	}
	return d
}

func (m treeMetric) Dist(u, v graph.NodeID) int32 {
	du, dv := m.depth(u), m.depth(v)
	var steps int32
	for du > dv {
		u = m.parent(u)
		du--
		steps++
	}
	for dv > du {
		v = m.parent(v)
		dv--
		steps++
	}
	for u != v {
		u, v = m.parent(u), m.parent(v)
		steps += 2
	}
	return steps
}

// ---------------------------------------------------------------------------
// Vertex-transitive families: cycle, complete, torus, hypercube
// ---------------------------------------------------------------------------

type cycleMetric struct{ n int }

// CycleMetric returns the closed-form metric of Cycle(n); it implements
// dist.Transitive.
func CycleMetric(n int) TransitiveMetric { return cycleMetric{n: n} }

func (m cycleMetric) N() int { return m.n }

func (m cycleMetric) Dist(u, v graph.NodeID) int32 {
	d := absi32(u - v)
	if alt := int32(m.n) - d; alt < d {
		return alt
	}
	return d
}

func (m cycleMetric) Eccentricity() int32 { return int32(m.n / 2) }

func (m cycleMetric) SphereSize(d int32) float64 {
	switch {
	case d == 0:
		return 1
	case m.n%2 == 0 && d == int32(m.n/2):
		return 1
	default:
		return 2
	}
}

func (m cycleMetric) SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID {
	if d < 0 || d > m.Eccentricity() {
		panic("gen: cycle sphere distance out of range")
	}
	if d == 0 {
		return u
	}
	off := d
	if m.SphereSize(d) == 2 && rng.Bool() {
		off = -d
	}
	return graph.NodeID(((int(u)+int(off))%m.n + m.n) % m.n)
}

type completeMetric struct{ n int }

// CompleteMetric returns the closed-form metric of Complete(n); it
// implements dist.Transitive.
func CompleteMetric(n int) TransitiveMetric { return completeMetric{n: n} }

func (m completeMetric) N() int { return m.n }

func (m completeMetric) Dist(u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	return 1
}

func (m completeMetric) Eccentricity() int32 {
	if m.n <= 1 {
		return 0
	}
	return 1
}

func (m completeMetric) SphereSize(d int32) float64 {
	if d == 0 {
		return 1
	}
	return float64(m.n - 1)
}

func (m completeMetric) SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID {
	if d < 0 || d > m.Eccentricity() {
		panic("gen: complete-graph sphere distance out of range")
	}
	if d == 0 {
		return u
	}
	v := graph.NodeID(rng.Intn(m.n - 1))
	if v >= u {
		v++
	}
	return v
}

// torusMetric is the wraparound Manhattan metric of Torus2D.  The distance
// profile N(d) = Σ_a mRow(a)·mCol(d-a) is precomputed once (O(ecc²) work at
// construction, ecc = ⌊R/2⌋+⌊C/2⌋), where mRow(a) counts row offsets at
// wrap-distance a (1 for a = 0 and for the antipodal offset of an even
// dimension, 2 otherwise).
type torusMetric struct {
	rows, cols int
	profile    []float64 // profile[d] = |sphere at distance d|
}

// Torus2DMetric returns the closed-form metric of Torus2D(rows, cols); it
// implements dist.Transitive.
func Torus2DMetric(rows, cols int) TransitiveMetric {
	m := &torusMetric{rows: rows, cols: cols}
	ecc := rows/2 + cols/2
	m.profile = make([]float64, ecc+1)
	for d := 0; d <= ecc; d++ {
		total := 0.0
		for a := max(0, d-cols/2); a <= min(d, rows/2); a++ {
			total += wrapMultiplicity(a, rows) * wrapMultiplicity(d-a, cols)
		}
		m.profile[d] = total
	}
	return m
}

// wrapMultiplicity counts the offsets of a cyclic dimension of the given
// length at wrap-distance a.
func wrapMultiplicity(a, length int) float64 {
	if a == 0 || (length%2 == 0 && a == length/2) {
		return 1
	}
	return 2
}

func (m *torusMetric) N() int { return m.rows * m.cols }

func (m *torusMetric) Dist(u, v graph.NodeID) int32 {
	c := int32(m.cols)
	dr := absi32(u/c - v/c)
	if alt := int32(m.rows) - dr; alt < dr {
		dr = alt
	}
	dc := absi32(u%c - v%c)
	if alt := int32(m.cols) - dc; alt < dc {
		dc = alt
	}
	return dr + dc
}

func (m *torusMetric) Eccentricity() int32 { return int32(len(m.profile) - 1) }

func (m *torusMetric) SphereSize(d int32) float64 { return m.profile[d] }

func (m *torusMetric) SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID {
	if d < 0 || int(d) >= len(m.profile) {
		panic("gen: torus sphere distance out of range")
	}
	if d == 0 {
		return u
	}
	// Split d into (row part a, column part d-a) with probability
	// proportional to mRow(a)·mCol(d-a), then pick a uniform sign per part.
	lo, hi := max(0, int(d)-m.cols/2), min(int(d), m.rows/2)
	x := rng.Float64() * m.profile[d]
	a := lo
	for ; a < hi; a++ {
		w := wrapMultiplicity(a, m.rows) * wrapMultiplicity(int(d)-a, m.cols)
		if x < w {
			break
		}
		x -= w
	}
	b := int(d) - a
	dr := wrapOffset(a, m.rows, rng)
	dc := wrapOffset(b, m.cols, rng)
	c := m.cols
	r2 := ((int(u)/c+dr)%m.rows + m.rows) % m.rows
	c2 := ((int(u)%c+dc)%c + c) % c
	return graph.NodeID(r2*c + c2)
}

// wrapOffset turns a wrap-distance a into a signed offset, choosing the
// sign uniformly when both representatives exist.
func wrapOffset(a, length int, rng *xrand.RNG) int {
	if a == 0 || (length%2 == 0 && a == length/2) {
		return a
	}
	if rng.Bool() {
		return -a
	}
	return a
}

// hypercubeMetric is the Hamming metric of Hypercube(d): dist(u, v) is the
// popcount of u XOR v, and the sphere at distance k is the set of nodes
// differing in exactly k of the d bits.
type hypercubeMetric struct {
	d        int
	binomial []float64 // binomial[k] = C(d, k)
}

// HypercubeMetric returns the closed-form metric of Hypercube(d); it
// implements dist.Transitive.
func HypercubeMetric(d int) TransitiveMetric {
	m := &hypercubeMetric{d: d, binomial: make([]float64, d+1)}
	m.binomial[0] = 1
	for k := 1; k <= d; k++ {
		m.binomial[k] = m.binomial[k-1] * float64(d-k+1) / float64(k)
	}
	return m
}

func (m *hypercubeMetric) N() int { return 1 << uint(m.d) }

func (m *hypercubeMetric) Dist(u, v graph.NodeID) int32 {
	return int32(bits.OnesCount32(uint32(u ^ v)))
}

func (m *hypercubeMetric) Eccentricity() int32 { return int32(m.d) }

func (m *hypercubeMetric) SphereSize(d int32) float64 { return m.binomial[d] }

func (m *hypercubeMetric) SampleAtDistance(u graph.NodeID, d int32, rng *xrand.RNG) graph.NodeID {
	if d < 0 || int(d) > m.d {
		panic("gen: hypercube sphere distance out of range")
	}
	// Flip a uniformly random d-subset of the bit positions: partial
	// Fisher-Yates over the (at most 31) positions, allocation-free.
	var posArr [31]int8
	for i := 0; i < m.d; i++ {
		posArr[i] = int8(i)
	}
	var mask uint32
	for i := 0; i < int(d); i++ {
		j := i + rng.Intn(m.d-i)
		posArr[i], posArr[j] = posArr[j], posArr[i]
		mask |= 1 << uint(posArr[i])
	}
	return u ^ graph.NodeID(mask)
}

func absi32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
