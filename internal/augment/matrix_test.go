package augment

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix([][]float64{{0.5, 0.5}, {0.2, 0.3}}); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if _, err := NewMatrix([][]float64{{0.5}, {0.2, 0.3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := NewMatrix([][]float64{{0.7, 0.7}, {0, 0}}); err == nil {
		t.Fatal("row sum > 1 accepted")
	}
	if _, err := NewMatrix([][]float64{{-0.1, 0}, {0, 0}}); err == nil {
		t.Fatal("negative entry accepted")
	}
	if _, err := NewMatrix([][]float64{{math.NaN(), 0}, {0, 0}}); err == nil {
		t.Fatal("NaN entry accepted")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m, err := NewMatrix([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Fatalf("K=%d", m.K())
	}
	if m.P(1, 2) != 0.2 || m.P(2, 1) != 0.3 {
		t.Fatal("P uses wrong indexing")
	}
	if math.Abs(m.RowSum(2)-0.7) > 1e-12 {
		t.Fatalf("RowSum(2)=%v", m.RowSum(2))
	}
}

func TestMatrixPanicsOnBadLabel(t *testing.T) {
	m := NewUniformMatrix(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.P(0, 1)
}

func TestSampleRowDistribution(t *testing.T) {
	m, err := NewMatrix([][]float64{
		{0.5, 0.25, 0}, // 0.25 left over = no link
		{0, 1, 0},
		{0, 0, 0}, // always no link
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	counts := map[int]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[m.SampleRow(1, rng)]++
	}
	if frac := float64(counts[1]) / draws; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("column 1 frequency %v, want 0.5", frac)
	}
	if frac := float64(counts[2]) / draws; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("column 2 frequency %v, want 0.25", frac)
	}
	if frac := float64(counts[0]) / draws; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("no-link frequency %v, want 0.25", frac)
	}
	if counts[3] != 0 {
		t.Fatal("zero-probability column sampled")
	}
	for i := 0; i < 1000; i++ {
		if m.SampleRow(2, rng) != 2 {
			t.Fatal("deterministic row sampled wrong column")
		}
		if m.SampleRow(3, rng) != 0 {
			t.Fatal("empty row should always return no link")
		}
	}
}

func TestUniformMatrixProperties(t *testing.T) {
	m := NewUniformMatrix(10)
	for i := 1; i <= 10; i++ {
		if math.Abs(m.RowSum(i)-1) > 1e-9 {
			t.Fatalf("uniform row %d sums to %v", i, m.RowSum(i))
		}
		for j := 1; j <= 10; j++ {
			if math.Abs(m.P(i, j)-0.1) > 1e-12 {
				t.Fatal("uniform entry wrong")
			}
		}
	}
}

func TestHarmonicMatrixProperties(t *testing.T) {
	m := NewHarmonicMatrix(20)
	for i := 1; i <= 20; i++ {
		if m.P(i, i) != 0 {
			t.Fatal("harmonic diagonal must be zero")
		}
		if math.Abs(m.RowSum(i)-1) > 1e-9 {
			t.Fatalf("harmonic row %d sums to %v", i, m.RowSum(i))
		}
	}
	// Closer labels must get more mass.
	if m.P(1, 2) <= m.P(1, 10) {
		t.Fatal("harmonic matrix not decreasing with distance")
	}
}

func TestAncestorMatrixMatchesDefinition(t *testing.T) {
	k := 16
	m := newAncestorMatrix(k)
	norm := 1.0 / (1.0 + math.Log2(float64(k)))
	// Ancestors of 3 within [1,16]: 3, 2, 4, 8, 16.
	for _, j := range []int{3, 2, 4, 8, 16} {
		if math.Abs(m.P(3, j)-norm) > 1e-12 {
			t.Fatalf("A(3,%d)=%v, want %v", j, m.P(3, j), norm)
		}
	}
	if m.P(3, 5) != 0 || m.P(3, 6) != 0 {
		t.Fatal("non-ancestor entries must be zero")
	}
	// Row sums must not exceed 1 (checked by the constructor, but assert a
	// specific row for clarity).
	if m.RowSum(1) > 1+1e-9 {
		t.Fatalf("row 1 sum %v", m.RowSum(1))
	}
}

func TestCombineMatrices(t *testing.T) {
	a := newAncestorMatrix(8)
	u := NewUniformMatrix(8)
	m, err := combine(a, u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			want := (a.P(i, j) + u.P(i, j)) / 2
			if math.Abs(m.P(i, j)-want) > 1e-12 {
				t.Fatal("combine entry wrong")
			}
		}
	}
	if _, err := combine(NewUniformMatrix(3), NewUniformMatrix(4)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSubsetMass(t *testing.T) {
	m := NewUniformMatrix(100)
	set := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	want := float64(10*9) / 100
	if math.Abs(m.SubsetMass(set)-want) > 1e-9 {
		t.Fatalf("SubsetMass=%v, want %v", m.SubsetMass(set), want)
	}
}

func TestNameIndependentSchemeIdentity(t *testing.T) {
	g := gen.Path(10)
	// Matrix that always sends label i to label i+1 (and the last to none).
	p := make([][]float64, 10)
	for i := range p {
		p[i] = make([]float64, 10)
		if i+1 < 10 {
			p[i][i+1] = 1
		}
	}
	m, err := NewMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := (&NameIndependentScheme{Matrix: m}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	// Identity labeling: node v has label v+1, so node v's contact must be
	// node v+1, and the last node has no link.
	for v := 0; v < 9; v++ {
		if c := inst.Contact(int32(v), rng); c != int32(v+1) {
			t.Fatalf("contact of %d = %d, want %d", v, c, v+1)
		}
	}
	if c := inst.Contact(9, rng); c != 9 {
		t.Fatalf("last node should have no link, got %d", c)
	}
}

func TestNameIndependentSchemeWithPermutation(t *testing.T) {
	g := gen.Path(6)
	p := make([][]float64, 6)
	for i := range p {
		p[i] = make([]float64, 6)
		p[i][0] = 1 // every label points to label 1
	}
	m, _ := NewMatrix(p)
	perm := []int{3, 1, 2, 6, 5, 4} // node 1 carries label 1
	inst, err := (&NameIndependentScheme{Matrix: m, Perm: perm}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	for v := 0; v < 6; v++ {
		if c := inst.Contact(int32(v), rng); c != 1 {
			t.Fatalf("contact of %d = %d, want node 1 (label 1)", v, c)
		}
	}
}

func TestNameIndependentSchemeValidation(t *testing.T) {
	g := gen.Path(5)
	m := NewUniformMatrix(4)
	if _, err := (&NameIndependentScheme{Matrix: m}).Prepare(g); err == nil {
		t.Fatal("size mismatch accepted")
	}
	m5 := NewUniformMatrix(5)
	if _, err := (&NameIndependentScheme{Matrix: m5, Perm: []int{1, 2, 3, 4, 4}}).Prepare(g); err == nil {
		t.Fatal("duplicate label accepted")
	}
	if _, err := (&NameIndependentScheme{Matrix: m5, Perm: []int{0, 1, 2, 3, 4}}).Prepare(g); err == nil {
		t.Fatal("label 0 accepted")
	}
}

func TestMatrixLabelingSchemeSharedLabels(t *testing.T) {
	g := gen.Path(9)
	// 3 labels, each label owns a block of 3 nodes; matrix always picks label 3.
	p := [][]float64{
		{0, 0, 1},
		{0, 0, 1},
		{0, 0, 1},
	}
	m, _ := NewMatrix(p)
	labels := []int{1, 1, 1, 2, 2, 2, 3, 3, 3}
	inst, err := (&MatrixLabelingScheme{Matrix: m, Labels: labels}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	counts := map[int32]int{}
	for i := 0; i < 30000; i++ {
		c := inst.Contact(0, rng)
		if c < 6 {
			t.Fatalf("contact %d outside label-3 block", c)
		}
		counts[c]++
	}
	for v := int32(6); v < 9; v++ {
		frac := float64(counts[v]) / 30000
		if frac < 0.28 || frac > 0.39 {
			t.Fatalf("node %d picked with frequency %v, want ~1/3", v, frac)
		}
	}
}

func TestMatrixLabelingSchemeEmptyLabelMeansNoLink(t *testing.T) {
	g := gen.Path(4)
	p := [][]float64{
		{0, 1, 0},
		{0, 1, 0},
		{0, 1, 0},
	}
	m, _ := NewMatrix(p)
	labels := []int{1, 1, 3, 3} // nobody carries label 2
	inst, err := (&MatrixLabelingScheme{Matrix: m, Labels: labels}).Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	for v := int32(0); v < 4; v++ {
		if c := inst.Contact(v, rng); c != v {
			t.Fatalf("empty target label should mean no link, got %d for %d", c, v)
		}
	}
}

func TestMatrixLabelingSchemeValidation(t *testing.T) {
	g := gen.Path(3)
	m := NewUniformMatrix(2)
	if _, err := (&MatrixLabelingScheme{Matrix: m, Labels: []int{1, 2}}).Prepare(g); err == nil {
		t.Fatal("short labeling accepted")
	}
	if _, err := (&MatrixLabelingScheme{Matrix: m, Labels: []int{1, 2, 3}}).Prepare(g); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestAdversarialPathLabelingUniform(t *testing.T) {
	rng := xrand.New(7)
	n := 400
	adv, err := AdversarialPathLabeling(NewUniformMatrix(n), rng)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Mass >= 1 {
		t.Fatalf("adversarial mass %v >= 1", adv.Mass)
	}
	validatePermutation(t, adv.Perm, n)
	segLen := adv.SegmentEnd - adv.SegmentStart
	if segLen < 20 || segLen > 21 { // ceil(sqrt(400)) = 20
		t.Fatalf("segment length %d, want ~20", segLen)
	}
	if adv.Source < adv.SegmentStart || adv.Target >= adv.SegmentEnd || adv.Source >= adv.Target {
		t.Fatalf("suggested endpoints %d,%d outside segment [%d,%d)", adv.Source, adv.Target, adv.SegmentStart, adv.SegmentEnd)
	}
}

func TestAdversarialPathLabelingHarmonic(t *testing.T) {
	rng := xrand.New(8)
	n := 256
	adv, err := AdversarialPathLabeling(NewHarmonicMatrix(n), rng)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Mass >= 1 {
		t.Fatalf("harmonic adversarial mass %v >= 1", adv.Mass)
	}
	validatePermutation(t, adv.Perm, n)
	// The internal mass of the chosen set, recomputed independently, must
	// match and stay below 1.
	set := adv.Perm[adv.SegmentStart:adv.SegmentEnd]
	if m := NewHarmonicMatrix(n).SubsetMass(set); m >= 1 {
		t.Fatalf("recomputed segment mass %v >= 1", m)
	}
}

func TestAdversarialPathLabelingSmallNRejected(t *testing.T) {
	rng := xrand.New(9)
	if _, err := AdversarialPathLabeling(NewUniformMatrix(4), rng); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestAdversarialLabelingPropertyAcrossMatrices(t *testing.T) {
	rng := xrand.New(10)
	check := func(seed uint16) bool {
		n := 100 + int(seed%100)
		// Random augmentation matrix with row sums <= 1.
		p := make([][]float64, n)
		local := xrand.New(uint64(seed) + 1)
		for i := range p {
			p[i] = make([]float64, n)
			// concentrate mass on a few random columns
			cols := local.Sample(n, 5)
			remaining := 1.0
			for _, c := range cols {
				v := local.Float64() * remaining
				p[i][c] = v
				remaining -= v
			}
		}
		m, err := NewMatrix(p)
		if err != nil {
			return false
		}
		adv, err := AdversarialPathLabeling(m, rng)
		if err != nil {
			return false
		}
		return adv.Mass < 1 && len(adv.Perm) == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func validatePermutation(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n+1)
	for _, l := range perm {
		if l < 1 || l > n || seen[l] {
			t.Fatalf("bad permutation entry %d", l)
		}
		seen[l] = true
	}
}

func TestBlockLabels(t *testing.T) {
	labels, err := NewBlockLabels(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 10 {
		t.Fatal("length")
	}
	for v, l := range labels {
		if l < 1 || l > 3 {
			t.Fatalf("label %d out of range", l)
		}
		if v > 0 && labels[v-1] > l {
			t.Fatal("block labels must be non-decreasing along the path")
		}
	}
}

func TestCompressedLabelPathScheme(t *testing.T) {
	s, err := NewCompressedLabelPathScheme(1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Path(1000)
	inst, err := s.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	// Contacts must always be valid nodes.
	for i := 0; i < 1000; i++ {
		u := int32(rng.Intn(1000))
		c := inst.Contact(u, rng)
		if c < 0 || c >= 1000 {
			t.Fatalf("contact %d out of range", c)
		}
	}
	if _, err := NewCompressedLabelPathScheme(100, 1.5); err == nil {
		t.Fatal("epsilon > 1 accepted")
	}
}

func TestLabelsForGraphSizeAndBound(t *testing.T) {
	if LabelsForGraphSize(10000, 0.5) != 100 {
		t.Fatalf("k=%d", LabelsForGraphSize(10000, 0.5))
	}
	if LabelsForGraphSize(100, 0) != 2 {
		t.Fatal("epsilon 0 should give the minimum of 2 labels")
	}
	if Theorem3LowerBoundExponent(1) != 0 {
		t.Fatal("epsilon=1 bound should be 0")
	}
	if math.Abs(Theorem3LowerBoundExponent(0.25)-0.25) > 1e-12 {
		t.Fatal("bound exponent wrong")
	}
}

// newAncestorMatrix returns the dense k×k version of the paper's matrix A:
// A(i,j) = 1/(1+log2 k) when j is an ancestor of i (including i itself) and
// j <= k, and 0 otherwise.  Theorem 2's structured scheme never materialises
// this matrix; the dense form is an independent reference for its tests.
func newAncestorMatrix(k int) *Matrix {
	norm := 1.0 / (1.0 + math.Log2(float64(max(k, 2))))
	p := make([][]float64, k)
	for i := 1; i <= k; i++ {
		p[i-1] = make([]float64, k)
		for _, j := range ancestorsUpTo(i, k) {
			p[i-1][j-1] = norm
		}
	}
	m, err := NewMatrix(p)
	if err != nil {
		panic("augment: ancestor matrix construction failed: " + err.Error())
	}
	return m
}

// combine returns (a + b) / 2 entrywise, the M = (A+U)/2 construction of
// Theorem 2.  Both matrices must have the same dimension.
func combine(a, b *Matrix) (*Matrix, error) {
	if a.k != b.k {
		return nil, fmt.Errorf("augment: cannot combine %d×%d with %d×%d", a.k, a.k, b.k, b.k)
	}
	p := make([][]float64, a.k)
	for i := 0; i < a.k; i++ {
		p[i] = make([]float64, a.k)
		for j := 0; j < a.k; j++ {
			p[i][j] = (a.p[i][j] + b.p[i][j]) / 2
		}
	}
	return NewMatrix(p)
}

// ancestorsUpTo lists the ancestors of label x (x itself included) up to
// maxValue, independently of label.Ancestors.
func ancestorsUpTo(x, maxValue int) []int {
	k := 0
	for x&(1<<uint(k)) == 0 {
		k++
	}
	var out []int
	for j := 0; k+j < 62 && 1<<uint(k+j) <= maxValue; j++ {
		target := k + j
		high := x &^ ((1 << uint(target+1)) - 1)
		a := high | (1 << uint(target))
		if a <= maxValue {
			out = append(out, a)
		}
	}
	return out
}
