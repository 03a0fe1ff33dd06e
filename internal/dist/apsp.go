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

// Dist returns the exact hop distance between u and v, or
// graph.Unreachable if they lie in different components.
func (a *APSP) Dist(u, v graph.NodeID) int32 {
	return a.d[int64(u)*int64(a.n)+int64(v)]
}
