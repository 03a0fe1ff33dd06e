package sampler

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"navaug/internal/xrand"
)

func TestNewAliasValidation(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float64{1, -0.5}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("infinite weight accepted")
	}
}

func TestBuildIntoValidatesLengths(t *testing.T) {
	w := []float64{1, 2}
	if err := BuildInto(make([]float64, 1), make([]int32, 2), w, make([]int32, 2)); err == nil {
		t.Fatal("short prob buffer accepted")
	}
	if err := BuildInto(make([]float64, 2), make([]int32, 2), w, make([]int32, 1)); err == nil {
		t.Fatal("short scratch buffer accepted")
	}
}

// aliasEmpirical draws many samples and returns the empirical frequencies.
func aliasEmpirical(t *testing.T, a Alias, draws int, seed uint64) []float64 {
	t.Helper()
	rng := xrand.New(seed)
	counts := make([]int, a.K())
	for i := 0; i < draws; i++ {
		v := a.Draw(rng)
		if v < 0 || int(v) >= a.K() {
			t.Fatalf("draw %d out of range [0,%d)", v, a.K())
		}
		counts[v]++
	}
	freq := make([]float64, a.K())
	for i, c := range counts {
		freq[i] = float64(c) / float64(draws)
	}
	return freq
}

func TestAliasMatchesDistribution(t *testing.T) {
	cases := map[string][]float64{
		"uniform4":    {1, 1, 1, 1},
		"skewed":      {10, 1, 0.1, 5, 3},
		"single":      {7},
		"with-zeros":  {0, 3, 0, 1, 0},
		"one-hot":     {0, 0, 1, 0},
		"tiny-vs-big": {1e-9, 1},
		"harmonic":    {1, 0.5, 1.0 / 3, 0.25, 0.2, 1.0 / 6, 1.0 / 7, 0.125},
	}
	for name, weights := range cases {
		a, err := NewAlias(weights)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0.0
		for _, w := range weights {
			total += w
		}
		const draws = 200000
		freq := aliasEmpirical(t, a, draws, 42)
		for i, w := range weights {
			want := w / total
			if math.Abs(freq[i]-want) > 0.01+3*math.Sqrt(want*(1-want)/draws)*3 {
				t.Fatalf("%s: outcome %d frequency %v, want %v", name, i, freq[i], want)
			}
		}
	}
}

func TestAliasNeverReturnsZeroWeightOutcome(t *testing.T) {
	weights := []float64{0, 5, 0, 0.001, 0, 2, 0, 0}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for i := 0; i < 500000; i++ {
		if v := a.Draw(rng); weights[v] == 0 {
			t.Fatalf("drew zero-weight outcome %d", v)
		}
	}
}

func TestBuildIntoIsDeterministic(t *testing.T) {
	weights := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	p1, a1 := make([]float64, 8), make([]int32, 8)
	p2, a2 := make([]float64, 8), make([]int32, 8)
	scratch := make([]int32, 8)
	if err := BuildInto(p1, a1, weights, scratch); err != nil {
		t.Fatal(err)
	}
	if err := BuildInto(p2, a2, weights, scratch); err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] || a1[i] != a2[i] {
			t.Fatal("rebuild produced a different table")
		}
	}
}

func TestAliasColumnMassIsExact(t *testing.T) {
	// Structural check of the table itself: summing each outcome's
	// acceptance mass plus the mass aliased to it must reproduce the
	// normalised weights (each column holds 1/k total mass).
	weights := []float64{2, 0, 1, 7, 0.5, 0.5}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	k := float64(a.K())
	mass := make([]float64, a.K())
	for i := range a.prob {
		mass[i] += a.prob[i] / k
		if a.prob[i] < 1 {
			mass[a.alias[i]] += (1 - a.prob[i]) / k
		}
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		if math.Abs(mass[i]-w/total) > 1e-12 {
			t.Fatalf("column %d carries mass %v, want %v", i, mass[i], w/total)
		}
	}
}

func TestAliasDrawZeroAlloc(t *testing.T) {
	a, err := NewAlias([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	allocs := testing.AllocsPerRun(1000, func() { a.Draw(rng) })
	if allocs != 0 {
		t.Fatalf("Draw allocates %v per call", allocs)
	}
}

func TestEpochMemoBasics(t *testing.T) {
	m := NewEpochMemo(10)
	if m.Len() != 10 {
		t.Fatalf("Len %d", m.Len())
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("fresh memo has an entry")
	}
	m.Set(3, 77)
	if v, ok := m.Get(3); !ok || v != 77 {
		t.Fatalf("Get after Set: %v %v", v, ok)
	}
	m.Reset()
	if _, ok := m.Get(3); ok {
		t.Fatal("Reset did not invalidate the entry")
	}
	m.Set(3, 5)
	if v, ok := m.Get(3); !ok || v != 5 {
		t.Fatalf("Set after Reset: %v %v", v, ok)
	}
}

func TestEpochMemoEpochWrap(t *testing.T) {
	m := NewEpochMemo(4)
	m.Set(1, 42)
	m.epoch = ^uint32(0) // next Reset wraps
	m.Reset()
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap %d, want 1", m.epoch)
	}
	// The stale mark from the pre-wrap epoch must not read as valid.
	if _, ok := m.Get(1); ok {
		t.Fatal("stale entry visible after epoch wrap")
	}
}

func TestEpochMemoResetZeroAlloc(t *testing.T) {
	m := NewEpochMemo(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Reset()
		m.Set(5, 6)
		m.Get(5)
	})
	if allocs != 0 {
		t.Fatalf("memo cycle allocates %v per run", allocs)
	}
}

func TestLazyRowsRejectsNonSquareFallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rows > k accepted despite the row-as-outcome fallback")
		}
	}()
	NewLazyRows(10, 4, nil)
}

// countingFiller serves fixed weight rows and counts how often each row is
// filled.  Outcome i of a row is class i+1, its weight the table entry.
type countingFiller struct {
	weights [][]float64
	fills   []atomic.Int32
}

func (f *countingFiller) FillRow(row int32, cls, _ []int32, _ []float64) []float64 {
	f.fills[row].Add(1)
	for i := range cls {
		cls[i] = int32(i + 1)
	}
	return append([]float64{0}, f.weights[row]...)
}

// TestLazyRowsMatchesAlias checks LazyRows against a standalone alias table
// over the same weights.  First draws come from 8 goroutines at once; each
// drawn row must be filled exactly once, and the last row of every case is
// never drawn, so it must never be filled.
func TestLazyRowsMatchesAlias(t *testing.T) {
	cases := map[string][][]float64{
		"plain": {
			{1, 2, 3, 4, 5},
			{5, 1, 1, 1, 1},
			{0.5, 0.25, 0.125, 2, 9},
			{1, 1, 1, 1, 1},
		},
		"zero-weight-outcomes": {
			{0, 3, 0, 1, 0},
			{2, 0, 0, 0, 1},
			{0, 0, 1, 0, 0},
			{0, 0, 0, 0, 1},
		},
		"all-zero-row": {
			{1, 1, 1, 1},
			{0, 0, 0, 0},
			{0, 2, 0, 3},
			{1, 0, 0, 0},
		},
	}
	for name, weights := range cases {
		t.Run(name, func(t *testing.T) {
			f := &countingFiller{weights: weights, fills: make([]atomic.Int32, len(weights))}
			l := NewLazyRows(len(weights), len(weights[0]), f)
			drawn := int32(len(weights) - 1)

			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := xrand.New(uint64(g))
					<-start
					for i := int32(0); i < drawn; i++ {
						l.Draw((i+int32(g))%drawn, rng)
					}
				}()
			}
			close(start)
			wg.Wait()
			for row := range f.fills {
				want := int32(1)
				if int32(row) == drawn {
					want = 0
				}
				if got := f.fills[row].Load(); got != want {
					t.Fatalf("row %d filled %d times, want %d", row, got, want)
				}
			}

			for row := int32(0); row < drawn; row++ {
				total := 0.0
				for _, w := range weights[row] {
					total += w
				}
				lazyRNG := xrand.New(100 + uint64(row))
				if total == 0 {
					for i := 0; i < 1000; i++ {
						if v := l.Draw(row, lazyRNG); v != row {
							t.Fatalf("all-zero row %d drew %d, want the row itself", row, v)
						}
					}
					continue
				}
				a, err := NewAlias(weights[row])
				if err != nil {
					t.Fatal(err)
				}
				aliasRNG := xrand.New(100 + uint64(row))
				for i := 0; i < 1000; i++ {
					if got, want := l.Draw(row, lazyRNG), a.Draw(aliasRNG); got != want {
						t.Fatalf("row %d draw %d: LazyRows gave %d, Alias gave %d", row, i, got, want)
					}
				}
			}

			rng := xrand.New(1)
			if allocs := testing.AllocsPerRun(1000, func() { l.Draw(0, rng) }); allocs != 0 {
				t.Fatalf("Draw on a built row allocates %v per call", allocs)
			}
		})
	}
}

type constFiller struct{}

func (constFiller) FillRow(_ int32, cls, _ []int32, buf []float64) []float64 {
	for i := range cls {
		cls[i] = 1
	}
	buf[0], buf[1] = 0, 1
	return buf[:2]
}

// TestLazyRowsOnlyDrawnRowsHoldMemory checks that a wide table family costs
// memory only for the rows drawn from: three rows of 4096 outcomes are
// ~150 KB, while tables for every row would take ~200 MB.
func TestLazyRowsOnlyDrawnRowsHoldMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := NewLazyRows(4096, 4096, constFiller{})
	rng := xrand.New(1)
	for _, row := range []int32{0, 1000, 4095} {
		l.Draw(row, rng)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Fatalf("heap grew by %d bytes after drawing from 3 rows, want < 2 MiB", grew)
	}
}
