package sampler

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"navaug/internal/par"
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

// MaxClasses is the longest class table a LazyRows row can code: a row
// keeps one uint16 code per outcome, and the two top codes are reserved.
const MaxClasses = codeSide

// The reserved codes of a built row.  An accept-always column is drawn
// whenever it is picked (a Vose leftover finalised to prob 1); a side
// column's alias slot indexes its (prob, alias) pair in the row's side
// slices.  Every other column's code is its class c, its prob
// vals[c]·scale, recomputed by the draw with the same bits the build
// computed.
const (
	codeSide   = math.MaxUint16 - 1
	codeAccept = math.MaxUint16
)

// LazyRows is a square family of Walker alias tables — one row of k
// outcomes per key in [0, rows) — whose rows are built on first draw.
// It is the memory/compute middle ground the augmentation schemes need:
// each row's table is allocated and filled on its first build, so both the
// bytes and the O(k) fill-and-build cost of a row are only ever paid for
// rows that are actually drawn from (an untouched row costs one pointer).
// First builds run under a striped lock so concurrent first draws stay
// race-free.
//
// A row is stored class-coded: a uint16 code and an int32 alias per
// outcome, plus the class table and its scale, so a column whose
// acceptance probability is its scaled class weight (every Vose donor)
// stores no float.  Only receivers whose probability is a residual after
// pairing keep an exact (prob, alias) pair, 12 bytes, on the side.  A row
// thus costs 6·k bytes plus 12 per such receiver.  Pairing leaves nearly
// every receiver (scaled weight >= 1) with a residual, so that is 6.2 to
// 10.7 bytes an outcome for ball and harmonic (exponents 1 and 2) rows of
// 4096 outcomes, against 12 for a plain Alias, but up to 18 for a
// near-uniform row, where almost every outcome is a receiver.
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
	rows   []atomic.Pointer[codedRow] // nil until the row is built
	locks  []sync.Mutex
	pool   sync.Pool // *rowScratch
}

// codedRow is one built row.  Column i accepts with probability
// vals[code[i]]·scale and otherwise yields alias[i], except for the
// reserved codes: codeAccept always accepts, and codeSide reads its
// (prob, alias) from sideProb and sideAlias at alias[i].  The effective
// (prob, alias) of every column has the bits BuildInto gives the row's
// weights.
type codedRow struct {
	code      []uint16
	alias     []int32
	sideProb  []float64
	sideAlias []int32
	vals      []float64 // the class table: a copy, or the filler's shared one
	scale     float64
}

// column returns the effective acceptance probability and alias of column
// i.  An accept-always column's prob 1 exceeds every Float64 a draw can
// compare with it.
func (r *codedRow) column(i int32) (float64, int32) {
	switch c := r.code[i]; c {
	case codeAccept:
		return 1, i
	case codeSide:
		j := r.alias[i]
		return r.sideProb[j], r.sideAlias[j]
	default:
		return r.vals[c] * r.scale, r.alias[i]
	}
}

type rowScratch struct {
	cls  []int32
	work []int32   // the filler's queue, then the Vose worklist
	prob []float64 // the scaled weights and residuals during pairing
	recv []int32   // the initial receivers
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
		rows:   make([]atomic.Pointer[codedRow], rows),
		locks:  make([]sync.Mutex, lazyStripes),
	}
	l.pool.New = func() any {
		return &rowScratch{cls: make([]int32, k), work: make([]int32, k), prob: make([]float64, k), recv: make([]int32, k)}
	}
	return l
}

// Draw samples an outcome from the given row, building the row's table on
// first use.  Amortised O(1); allocation-free once the row exists.  Like
// Alias.Draw it consumes one Uint64n(k) and one Float64 per draw.
func (l *LazyRows) Draw(row int32, rng *xrand.RNG) int32 {
	r := l.rows[row].Load()
	if r == nil {
		r = l.build(row)
	}
	i := int32(rng.Uint64n(uint64(len(r.code))))
	u := rng.Float64()
	p, a := r.column(i)
	if u < p {
		return i
	}
	return a
}

// build fills, codes and publishes one row under its stripe lock and
// returns it.  The row is immutable once published, so the atomic Store
// orders its build before every reader's Load.
//
// The table is BuildInto's over the weights vals[cls[i]]: the same sum in
// the same order, the same scaled weights and the same pairing, so every
// column's effective prob and alias have the bits BuildInto gives those
// weights.
func (l *LazyRows) build(row int32) *codedRow {
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
	if len(vals) > MaxClasses {
		panic(fmt.Sprintf("sampler: lazy row %d: class table has %d entries, a row codes at most %d", row, len(vals), MaxClasses))
	}
	code, alias := make([]uint16, l.k), make([]int32, l.k)
	r := &codedRow{code: code, alias: alias, vals: vals}
	if len(vals) <= RowClasses {
		// A table this short may live in sc.vals, which the next build
		// reuses; a longer one cannot, and is shared as the filler's.
		r.vals = append([]float64(nil), vals...)
	}

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
		code[i] = uint16(c)
	}
	if total == 0 {
		// No admissible outcome: all mass stays on the row itself.  This is
		// the table of the one-hot weights at row; a zero scale makes every
		// other column's prob 0.
		for i := range alias {
			alias[i] = row
		}
		code[row] = codeAccept
		l.rows[row].Store(r)
		return r
	}
	scale := float64(l.k) / total
	r.scale = scale
	prob, work := sc.prob, sc.work
	smallTop, largeBot := 0, l.k
	for i, c := range sc.cls {
		prob[i] = vals[c] * scale
		if prob[i] < 1 {
			work[smallTop] = int32(i)
			smallTop++
		} else {
			largeBot--
			work[largeBot] = int32(i)
		}
	}
	recv := sc.recv[:copy(sc.recv, work[largeBot:])]
	smallTop, largeBot = pairVose(prob, alias, work, smallTop, largeBot)
	// A leftover of weight 0 keeps its class code and takes the heaviest
	// outcome as alias; any other accepts always.  The weight-0 prob is
	// set for the side pass: when k/total overflows to +Inf, a weight-0
	// column scales to NaN and so starts as a receiver, and BuildInto
	// finalises its prob to 0.
	finalise := func(i int32) {
		if vals[sc.cls[i]] == 0 {
			prob[i] = 0
			alias[i] = heaviest
			return
		}
		code[i] = codeAccept
		alias[i] = i
	}
	for _, i := range work[largeBot:] {
		finalise(i)
	}
	for smallTop > 0 {
		smallTop--
		finalise(work[smallTop])
	}
	// Every receiver that does not accept always holds a residual of
	// pairing, or is a weight-0 leftover: its (prob, alias) goes on the
	// side.
	sides := 0
	for _, i := range recv {
		if code[i] != codeAccept {
			sides++
		}
	}
	r.sideProb, r.sideAlias = make([]float64, sides), make([]int32, sides)
	j := int32(0)
	for _, i := range recv {
		if code[i] != codeAccept {
			r.sideProb[j], r.sideAlias[j] = prob[i], alias[i]
			code[i] = codeSide
			alias[i] = j
			j++
		}
	}
	l.rows[row].Store(r)
	return r
}

// BuildAll eagerly builds every missing row using the given number of
// workers (<= 0 means one).  Useful when a caller knows it will draw far
// more times than there are rows and wants the fills to run in parallel up
// front rather than lazily on the drawing goroutines.
func (l *LazyRows) BuildAll(workers int) {
	par.Ranges(len(l.rows), 1, workers, func(_, lo, hi int) error {
		for row := lo; row < hi; row++ {
			if l.rows[row].Load() == nil {
				l.build(int32(row))
			}
		}
		return nil
	})
}
