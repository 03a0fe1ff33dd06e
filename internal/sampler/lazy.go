package sampler

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"navaug/internal/xrand"
)

// RowFiller computes one sampling row as class codes: outcome i of the row
// has weight vals[cls[i]], where vals is the class table FillRow returns.
// Class 0 means weight 0 (vals[0] must be 0), so an outcome the filler never
// touches is never drawn.  Schemes whose weights take few distinct values
// per row (one per distance, or per ball scale) write one small code per
// outcome instead of one float, and the table build reads the weights in
// outcome order straight out of the class table.
//
// A RowFiller must be safe for concurrent use (LazyRows may build different
// rows from different goroutines at once), and every class value it uses
// must be finite and non-negative.
type RowFiller interface {
	// FillRow writes the class code of outcomes 0..k-1 of the given row
	// into cls (length k, all zero on entry) and returns the class table.
	// queue (length k) is free scratch.  buf (length RowClasses) is scratch
	// the returned table may live in; a table anywhere else must not change
	// while the LazyRows is in use.
	FillRow(row int32, cls, queue []int32, buf []float64) (vals []float64)
}

// RowClasses is the length of the buf a RowFiller may return its class
// table in.
const RowClasses = 64

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
	cls  []int32
	work []int32 // the filler's queue, then the Vose worklist
	vals [RowClasses]float64
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
		return &rowScratch{cls: make([]int32, k), work: make([]int32, k)}
	}
	return l
}

// Draw samples an outcome from the given row, building the row's table on
// first use.  Amortised O(1); allocation-free once the row exists.
func (l *LazyRows) Draw(row int32, rng *xrand.RNG) int32 {
	return l.Row(row).Draw(rng)
}

// Row returns the given row's table, building it on first use.  The table
// is immutable once built.
func (l *LazyRows) Row(row int32) *Alias {
	r := l.rows[row].Load()
	if r == nil {
		r = l.build(row)
	}
	return r
}

// build allocates, fills and publishes one row under its stripe lock and
// returns it.  The row is immutable once published, so the atomic Store
// orders its build before every reader's Load.
//
// The table is BuildInto's over the weights vals[cls[i]]: the same sum in
// the same order, the same scaled weights and the same pairing, so every
// prob and alias entry has the bits BuildInto gives those weights.
func (l *LazyRows) build(row int32) *Alias {
	lock := &l.locks[int(row)%lazyStripes]
	lock.Lock()
	defer lock.Unlock()
	if r := l.rows[row].Load(); r != nil { // lost the race: already built
		return r
	}
	sc := l.pool.Get().(*rowScratch)
	defer l.pool.Put(sc)
	clear(sc.cls)
	vals := l.filler.FillRow(row, sc.cls, sc.work, sc.vals[:])

	total := 0.0
	heaviest, top := int32(-1), 0.0
	for i, c := range sc.cls {
		w := vals[c]
		if !(w >= 0 && w <= math.MaxFloat64) {
			// Failing loud beats sampling from a half-built row.
			panic(fmt.Sprintf("sampler: lazy row %d: weight %d is %v, want finite and >= 0", row, i, w))
		}
		if heaviest < 0 || w > top {
			heaviest, top = int32(i), w
		}
		total += w
	}
	r := &Alias{prob: make([]float64, l.k), alias: make([]int32, l.k)}
	if total == 0 {
		// No admissible outcome: all mass stays on the row itself.  This is
		// the table of the one-hot weights at row.
		for i := range r.alias {
			r.alias[i] = row
		}
		r.prob[row] = 1
		l.rows[row].Store(r)
		return r
	}
	scale := float64(l.k) / total
	smallTop, largeBot := 0, l.k
	for i, c := range sc.cls {
		r.prob[i] = vals[c] * scale
		if r.prob[i] < 1 {
			sc.work[smallTop] = int32(i)
			smallTop++
		} else {
			largeBot--
			sc.work[largeBot] = int32(i)
		}
	}
	smallTop, largeBot = pairVose(r.prob, r.alias, sc.work, smallTop, largeBot)
	finalise := func(i int32) {
		if vals[sc.cls[i]] == 0 {
			r.prob[i] = 0
			r.alias[i] = heaviest
			return
		}
		r.prob[i] = 1
		r.alias[i] = i
	}
	for _, i := range sc.work[largeBot:] {
		finalise(i)
	}
	for smallTop > 0 {
		smallTop--
		finalise(sc.work[smallTop])
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
