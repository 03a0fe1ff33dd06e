package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide too often: %d/100", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed does not reproduce New")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	equal := 0
	for i := 0; i < 200; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("sibling streams overlap: %d/200 equal outputs", equal)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowersOfTwo(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(23)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean far from 0.5: %v", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(29)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expect := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 0.1*expect {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, expect)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatal("Shuffle changed the multiset")
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(53)
	p := 0.25
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // expected number of failures before first success
	if mean := sum / float64(n); math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %v, want about %v", mean, want)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Geometric(0)
}

func TestSampleDistinct(t *testing.T) {
	r := New(61)
	check := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCoverage(t *testing.T) {
	// Sampling 1 of n repeatedly should hit every element eventually.
	r := New(67)
	hit := make([]bool, 10)
	for i := 0; i < 2000; i++ {
		hit[r.Sample(10, 1)[0]] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("element %d never sampled", i)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(71)
	trues := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/float64(n)-0.5) > 0.01 {
		t.Fatalf("Bool imbalance: %d/%d", trues, n)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
