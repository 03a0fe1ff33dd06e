package augment

import (
	"fmt"
	"math"

	"navaug/internal/graph"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// Matrix is an augmentation matrix in the sense of Definition 1: a k×k
// matrix of probabilities with row sums at most 1.  Entry (i, j) — both
// 1-based, matching the paper — is the probability that a node labeled i
// chooses label j for its long-range contact.  Row mass left over after all
// columns means "no long-range link".
//
// Each row carries a Walker alias table over its k+1 outcomes (the k
// columns plus the leftover "no link" mass), built once at construction, so
// SampleRow is O(1) and allocation-free instead of a per-draw binary search
// over a cumulative row.
type Matrix struct {
	k       int
	p       [][]float64 // 0-based internally
	rowSum  []float64   // per-row total probability mass
	rowProb [][]float64 // per-row alias acceptance probabilities, k+1 outcomes
	rowAlia [][]int32   // per-row alias redirects; outcome 0 is "no link"
}

// NewMatrix builds an augmentation matrix from 1-based-labelled rows given
// as a dense k×k slice (p[i][j] is the probability that label i+1 picks
// label j+1).  It returns an error if entries are out of range or a row sums
// to more than 1 (with a small tolerance for rounding).
func NewMatrix(p [][]float64) (*Matrix, error) {
	k := len(p)
	m := &Matrix{
		k:       k,
		p:       make([][]float64, k),
		rowSum:  make([]float64, k),
		rowProb: make([][]float64, k),
		rowAlia: make([][]int32, k),
	}
	const tol = 1e-9
	weights := make([]float64, k+1)
	scratch := make([]int32, k+1)
	for i, row := range p {
		if len(row) != k {
			return nil, fmt.Errorf("augment: matrix row %d has %d entries, want %d", i+1, len(row), k)
		}
		sum := 0.0
		m.p[i] = append([]float64(nil), row...)
		for j, v := range row {
			if v < -tol || v > 1+tol || math.IsNaN(v) {
				return nil, fmt.Errorf("augment: matrix entry (%d,%d)=%v out of [0,1]", i+1, j+1, v)
			}
			sum += v
			// Entries within the tolerance band may still be tiny negative
			// floating-point dust; the alias builder needs true weights.
			if v < 0 {
				v = 0
			}
			weights[j+1] = v
		}
		if sum > 1+1e-6 {
			return nil, fmt.Errorf("augment: matrix row %d sums to %v > 1", i+1, sum)
		}
		m.rowSum[i] = sum
		// Outcome 0 is the unspent "no link" mass; clamp rounding dust.
		weights[0] = 1 - sum
		if weights[0] < 0 {
			weights[0] = 0
		}
		m.rowProb[i] = make([]float64, k+1)
		m.rowAlia[i] = make([]int32, k+1)
		if err := sampler.BuildInto(m.rowProb[i], m.rowAlia[i], weights, scratch); err != nil {
			return nil, fmt.Errorf("augment: matrix row %d alias table: %w", i+1, err)
		}
	}
	return m, nil
}

// K returns the matrix dimension (the number of labels).
func (m *Matrix) K() int { return m.k }

// P returns entry (i, j) with 1-based label indices.
func (m *Matrix) P(i, j int) float64 {
	m.checkLabel(i)
	m.checkLabel(j)
	return m.p[i-1][j-1]
}

// RowSum returns the total probability mass of row i (1-based).
func (m *Matrix) RowSum(i int) float64 {
	m.checkLabel(i)
	return m.rowSum[i-1]
}

// SampleRow draws a column label from row i (1-based) in O(1) via the row's
// alias table.  It returns 0 when the leftover "no link" mass is drawn.
func (m *Matrix) SampleRow(i int, rng *xrand.RNG) int {
	m.checkLabel(i)
	return int(sampler.Draw(m.rowProb[i-1], m.rowAlia[i-1], rng))
}

// SubsetMass returns Σ_{i≠j, i,j ∈ labels} P(i,j), the quantity the
// Theorem 1 adversarial-labeling argument needs to be below 1.
func (m *Matrix) SubsetMass(labels []int) float64 {
	total := 0.0
	for _, i := range labels {
		for _, j := range labels {
			if i != j {
				total += m.P(i, j)
			}
		}
	}
	return total
}

func (m *Matrix) checkLabel(i int) {
	if i < 1 || i > m.k {
		panic(fmt.Sprintf("augment: label %d out of range [1,%d]", i, m.k))
	}
}

// NewUniformMatrix returns the k×k uniform matrix U with every entry 1/k.
func NewUniformMatrix(k int) *Matrix {
	p := make([][]float64, k)
	for i := range p {
		p[i] = make([]float64, k)
		for j := range p[i] {
			p[i][j] = 1.0 / float64(k)
		}
	}
	m, err := NewMatrix(p)
	if err != nil {
		panic("augment: uniform matrix construction failed: " + err.Error())
	}
	return m
}

// NewHarmonicMatrix returns the k×k matrix with P(i,j) ∝ 1/|i-j| (normalised
// per row).  Under the identity labeling of a path it reproduces Kleinberg's
// one-dimensional harmonic augmentation, which is the natural "cheating"
// name-dependent matrix that Theorem 1's adversarial labeling defeats.
func NewHarmonicMatrix(k int) *Matrix {
	p := make([][]float64, k)
	for i := 0; i < k; i++ {
		p[i] = make([]float64, k)
		z := 0.0
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			z += 1.0 / math.Abs(float64(i-j))
		}
		if z == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			p[i][j] = (1.0 / math.Abs(float64(i-j))) / z
		}
	}
	m, err := NewMatrix(p)
	if err != nil {
		panic("augment: harmonic matrix construction failed: " + err.Error())
	}
	return m
}

// NameIndependentScheme applies an augmentation matrix to a graph through
// an explicit bijective labeling: node v carries label Perm[v] ∈ [1, n] and
// draws its contact's label from row Perm[v] of the matrix.  Theorem 1
// studies the worst case of this construction over labelings.
type NameIndependentScheme struct {
	// Matrix is the n×n augmentation matrix (n must equal the graph size).
	Matrix *Matrix
	// Perm[v] is the 1-based label of node v; it must be a bijection onto
	// [1, n].  A nil Perm means the identity labeling Perm[v] = v+1.
	Perm []int
	// SchemeName overrides the default name in reports.
	SchemeName string
}

// Name implements Scheme.
func (s *NameIndependentScheme) Name() string {
	if s.SchemeName != "" {
		return s.SchemeName
	}
	return "matrix-bijective"
}

// Prepare implements Scheme.
func (s *NameIndependentScheme) Prepare(g *graph.Graph) (Instance, error) {
	n := g.N()
	if s.Matrix == nil || s.Matrix.K() != n {
		return nil, fmt.Errorf("augment: matrix size %d does not match graph size %d", s.Matrix.K(), n)
	}
	perm := s.Perm
	if perm == nil {
		perm = make([]int, n)
		for v := range perm {
			perm[v] = v + 1
		}
	}
	if len(perm) != n {
		return nil, fmt.Errorf("augment: labeling has %d entries for %d nodes", len(perm), n)
	}
	inverse := make([]graph.NodeID, n+1)
	seen := make([]bool, n+1)
	for v, lbl := range perm {
		if lbl < 1 || lbl > n {
			return nil, fmt.Errorf("augment: node %d has label %d outside [1,%d]", v, lbl, n)
		}
		if seen[lbl] {
			return nil, fmt.Errorf("augment: label %d assigned twice", lbl)
		}
		seen[lbl] = true
		inverse[lbl] = graph.NodeID(v)
	}
	return &nameIndependentInstance{n: n, m: s.Matrix, perm: append([]int(nil), perm...), inverse: inverse}, nil
}

type nameIndependentInstance struct {
	n       int
	m       *Matrix
	perm    []int
	inverse []graph.NodeID
}

// Contact implements Instance.
func (s *nameIndependentInstance) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	j := s.m.SampleRow(s.perm[u], rng)
	if j == 0 {
		return u
	}
	return s.inverse[j]
}

// ContactDistribution implements Distributional: row perm[u] of the matrix
// mapped through the label→node bijection, with the unspent row mass (and
// any self entry) kept on u.
func (s *nameIndependentInstance) ContactDistribution(u graph.NodeID) []float64 {
	dist := make([]float64, s.n)
	row := s.perm[u]
	spent := 0.0
	for j := 1; j <= s.m.K(); j++ {
		p := s.m.P(row, j)
		if p == 0 {
			continue
		}
		dist[s.inverse[j]] += p
		spent += p
	}
	dist[u] += 1 - spent
	return dist
}

// MatrixLabelingScheme applies a k×k augmentation matrix through a
// many-to-one labeling: several nodes may share a label.  Per the paper,
// after drawing a label j the contact is a uniformly random node carrying
// label j; if no node carries j the draw is wasted (no long-range link).
type MatrixLabelingScheme struct {
	Matrix *Matrix
	// Labels[v] ∈ [1, Matrix.K()] is the label of node v.
	Labels []int
	// SchemeName overrides the default name in reports.
	SchemeName string
}

// Name implements Scheme.
func (s *MatrixLabelingScheme) Name() string {
	if s.SchemeName != "" {
		return s.SchemeName
	}
	return fmt.Sprintf("matrix-k%d", s.Matrix.K())
}

// Prepare implements Scheme.
func (s *MatrixLabelingScheme) Prepare(g *graph.Graph) (Instance, error) {
	n := g.N()
	if len(s.Labels) != n {
		return nil, fmt.Errorf("augment: labeling has %d entries for %d nodes", len(s.Labels), n)
	}
	k := s.Matrix.K()
	byLabel := make([][]graph.NodeID, k+1)
	for v, lbl := range s.Labels {
		if lbl < 1 || lbl > k {
			return nil, fmt.Errorf("augment: node %d has label %d outside [1,%d]", v, lbl, k)
		}
		byLabel[lbl] = append(byLabel[lbl], graph.NodeID(v))
	}
	return &matrixLabelingInstance{
		n:       n,
		m:       s.Matrix,
		labels:  append([]int(nil), s.Labels...),
		byLabel: byLabel,
	}, nil
}

type matrixLabelingInstance struct {
	n       int
	m       *Matrix
	labels  []int
	byLabel [][]graph.NodeID
}

// Contact implements Instance.
func (s *matrixLabelingInstance) Contact(u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	j := s.m.SampleRow(s.labels[u], rng)
	if j == 0 || len(s.byLabel[j]) == 0 {
		return u
	}
	cands := s.byLabel[j]
	return cands[rng.Intn(len(cands))]
}

// ContactDistribution implements Distributional: the matrix row of u's
// label, with each column's mass split evenly over the nodes carrying that
// label; mass on labels that no node carries (and unspent row mass) stays on
// u as "no link".
func (s *matrixLabelingInstance) ContactDistribution(u graph.NodeID) []float64 {
	dist := make([]float64, s.n)
	row := s.labels[u]
	spent := 0.0
	for j := 1; j <= s.m.K(); j++ {
		p := s.m.P(row, j)
		if p == 0 || len(s.byLabel[j]) == 0 {
			continue
		}
		share := p / float64(len(s.byLabel[j]))
		for _, v := range s.byLabel[j] {
			dist[v] += share
		}
		spent += p
	}
	dist[u] += 1 - spent
	return dist
}
