package dist

import (
	"runtime"

	"navaug/internal/graph"
	"navaug/internal/par"
)

// APSP is an exact all-pairs shortest-path oracle.  Distances are stored in
// one flat row-major int32 matrix, so a query is a single indexed load and
// a whole row (a distance field) can be handed out without copying.  The
// matrix is immutable after construction and safe for concurrent readers.
type APSP struct {
	n int32
	d []int32 // row-major n×n, d[u*n+v] = dist(u, v)
}

// NewAPSP computes the exact distance matrix of g using all CPUs: one BFS
// row per claim, with one queue per worker.  Rows are pure functions of the
// graph, so the matrix is the same at every GOMAXPROCS.  Construction costs
// O(n·(n+m)) time and n² int32 of memory.
func NewAPSP(g *graph.Graph) *APSP {
	n := g.N()
	a := &APSP{n: int32(n), d: make([]int32, n*n)}
	workers := runtime.GOMAXPROCS(0)
	queues := make([][]int32, workers)
	par.Ranges(n, 1, workers, func(w, lo, hi int) error {
		if queues[w] == nil {
			queues[w] = make([]int32, 0, n)
		}
		for u := lo; u < hi; u++ {
			row := a.d[u*n : (u+1)*n]
			for i := range row {
				row[i] = graph.Unreachable
			}
			g.BFSInto(graph.NodeID(u), row, queues[w])
		}
		return nil
	})
	return a
}

// N returns the number of nodes the oracle covers.
func (a *APSP) N() int { return int(a.n) }

// Dist returns the exact hop distance between u and v, or
// graph.Unreachable if they lie in different components.
func (a *APSP) Dist(u, v graph.NodeID) int32 {
	return a.d[int64(u)*int64(a.n)+int64(v)]
}

// Row returns the full distance field from u as a shared, read-only slice
// of length N.  Callers must not modify it.
func (a *APSP) Row(u graph.NodeID) []int32 {
	return a.d[int64(u)*int64(a.n) : (int64(u)+1)*int64(a.n)]
}

// Eccentricity returns the maximum distance from u to any node, or -1 if
// some node is unreachable from u.
func (a *APSP) Eccentricity(u graph.NodeID) int32 {
	ecc := int32(0)
	for _, d := range a.Row(u) {
		if d == graph.Unreachable {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter, or -1 for disconnected graphs
// (0 for the empty graph).
func (a *APSP) Diameter() int32 {
	best := int32(0)
	for u := int32(0); u < a.n; u++ {
		e := a.Eccentricity(u)
		if e < 0 {
			return -1
		}
		if e > best {
			best = e
		}
	}
	return best
}
