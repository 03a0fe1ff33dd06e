package sampler

import (
	"fmt"
	"sync"
	"sync/atomic"

	"navaug/internal/xrand"
)

// RowFiller computes the unnormalised weights of one sampling row.  It must
// be safe for concurrent use (LazyRows may build different rows from
// different goroutines at once) and must write only finite, non-negative
// weights.
type RowFiller interface {
	// FillRow writes the weights of outcome 0..k-1 for the given row into
	// weights (length k, arbitrary prior contents).
	FillRow(row int32, weights []float64)
}

// LazyRows is a square family of Walker alias tables — one row of k
// outcomes per key in [0, rows) — whose rows are built on first draw.
// It is the memory/compute middle ground the augmentation schemes need:
// each row's table is allocated and filled on its first build, so both the
// 12·k bytes and the O(k) fill-and-build cost of a row are only ever paid
// for rows that are actually drawn from (an untouched row costs one
// pointer).  First builds run under a striped lock so concurrent first
// draws stay race-free.
//
// Draws are deterministic regardless of build interleaving: building never
// touches the drawing RNG (a draw consumes RNG values only through Draw
// against the row's finished table), and tables are pure functions of the
// filler, so seed-fixed simulations give identical results for any worker
// count.
//
// A row whose weights are all zero keeps its whole mass on the row index
// itself (outcome == row), the schemes' "no long-range link" convention.
type LazyRows struct {
	k      int
	filler RowFiller
	rows   []atomic.Pointer[Alias] // nil until the row is built
	locks  []sync.Mutex
	pool   sync.Pool // *rowScratch
}

type rowScratch struct {
	weights []float64
	work    []int32
}

// lazyStripes is the number of build locks; first builds of distinct rows
// rarely collide, they only need to not race.
const lazyStripes = 64

// NewLazyRows returns rows unbuilt tables over k outcomes, filled by filler
// on first draw.  Every row index must itself be a valid outcome (rows <= k)
// so the all-zero-row fallback can park the mass on the row; it panics
// otherwise.
func NewLazyRows(rows, k int, filler RowFiller) *LazyRows {
	if rows > k {
		panic(fmt.Sprintf("sampler: LazyRows needs rows <= k for the no-outcome fallback, got %d rows over %d outcomes", rows, k))
	}
	l := &LazyRows{
		k:      k,
		filler: filler,
		rows:   make([]atomic.Pointer[Alias], rows),
		locks:  make([]sync.Mutex, lazyStripes),
	}
	l.pool.New = func() any {
		return &rowScratch{weights: make([]float64, k), work: make([]int32, k)}
	}
	return l
}

// Draw samples an outcome from the given row, building the row's table on
// first use.  Amortised O(1); allocation-free once the row exists.
func (l *LazyRows) Draw(row int32, rng *xrand.RNG) int32 {
	r := l.rows[row].Load()
	if r == nil {
		r = l.build(row)
	}
	return r.Draw(rng)
}

// build allocates, fills and publishes one row under its stripe lock and
// returns it.  The row is immutable once published, so the atomic Store
// orders its build before every reader's Load.
func (l *LazyRows) build(row int32) *Alias {
	lock := &l.locks[int(row)%lazyStripes]
	lock.Lock()
	defer lock.Unlock()
	if r := l.rows[row].Load(); r != nil { // lost the race: already built
		return r
	}
	sc := l.pool.Get().(*rowScratch)
	defer l.pool.Put(sc)
	l.filler.FillRow(row, sc.weights)
	total := 0.0
	for _, w := range sc.weights {
		total += w
	}
	if total == 0 {
		// No admissible outcome: all mass stays on the row itself.
		sc.weights[row] = 1
	}
	r := &Alias{prob: make([]float64, l.k), alias: make([]int32, l.k)}
	if err := BuildInto(r.prob, r.alias, sc.weights, sc.work); err != nil {
		// The filler contract (finite, non-negative) plus the zero-total
		// fallback above make this unreachable; failing loud beats sampling
		// from a half-built row.
		panic(fmt.Sprintf("sampler: lazy row %d: %v", row, err))
	}
	l.rows[row].Store(r)
	return r
}

// BuildAll eagerly builds every missing row using the given number of
// workers (<= 0 means one).  Useful when a caller knows it will draw far
// more times than there are rows and wants the fills to run in parallel up
// front rather than lazily on the drawing goroutines.
func (l *LazyRows) BuildAll(workers int) {
	rows := len(l.rows)
	if workers <= 0 {
		workers = 1
	}
	if workers > rows {
		workers = rows
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				row := int32(next.Add(1) - 1)
				if int(row) >= rows {
					return
				}
				if l.rows[row].Load() == nil {
					l.build(row)
				}
			}
		}()
	}
	wg.Wait()
}
