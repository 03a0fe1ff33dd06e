package gen

import (
	"fmt"
	"sort"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// Interval is a closed interval [Lo, Hi] on the real line.
type Interval struct {
	Lo, Hi float64
}

// IntervalModel is the geometric representation of an interval graph:
// Model[v] is the interval of node v.  The model is what the decomposition
// package uses to build a clique path of pathlength 1.
type IntervalModel []Interval

// IntervalGraph builds the intersection graph of the given intervals.
func IntervalGraph(model IntervalModel) *graph.Graph {
	n := len(model)
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("interval-%d", n))
	// Sweep by left endpoint: maintain the set of intervals whose Hi has not
	// yet passed; this keeps the construction near-linear in the output size.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return model[order[a]].Lo < model[order[b]].Lo })
	active := make([]int, 0, n)
	for _, v := range order {
		iv := model[v]
		keep := active[:0]
		for _, u := range active {
			if model[u].Hi >= iv.Lo {
				keep = append(keep, u)
				b.AddEdge(int32(u), int32(v))
			}
		}
		active = append(keep, v)
	}
	return b.Build()
}

// RandomIntervalGraph generates a connected random interval graph on n
// nodes together with its interval model.  Interval left endpoints are
// uniform in [0, n) and lengths are uniform in (0, meanLen*2); afterwards the
// intervals are stitched left-to-right so the union is a single overlapping
// chain, which guarantees connectivity without changing the graph class.
func RandomIntervalGraph(n int, meanLen float64, rng *xrand.RNG) (*graph.Graph, IntervalModel) {
	requirePositive(n, "RandomIntervalGraph")
	if meanLen <= 0 {
		panic("gen: RandomIntervalGraph requires meanLen > 0")
	}
	model := make(IntervalModel, n)
	for i := range model {
		lo := rng.Float64() * float64(n)
		length := rng.Float64() * 2 * meanLen
		model[i] = Interval{Lo: lo, Hi: lo + length}
	}
	// Stitch: scan by Lo; if the next interval starts after everything seen so
	// far ends, extend the interval with the current maximum Hi to bridge.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return model[order[a]].Lo < model[order[b]].Lo })
	maxHiIdx := order[0]
	for _, v := range order[1:] {
		if model[v].Lo > model[maxHiIdx].Hi {
			model[maxHiIdx].Hi = model[v].Lo
		}
		if model[v].Hi > model[maxHiIdx].Hi {
			maxHiIdx = v
		}
	}
	g := IntervalGraph(model).WithName(fmt.Sprintf("rinterval-%d", n))
	return g, model
}

// UnitIntervalPath returns the "thick path" unit interval graph: n nodes
// whose intervals have unit length and are spaced so that each node overlaps
// roughly `overlap` neighbours on each side.  With overlap=1 the graph is a
// path.  The interval model is returned for decomposition.
func UnitIntervalPath(n, overlap int) (*graph.Graph, IntervalModel) {
	requirePositive(n, "UnitIntervalPath")
	if overlap < 1 {
		panic("gen: UnitIntervalPath requires overlap >= 1")
	}
	model := make(IntervalModel, n)
	step := 1.0 / float64(overlap)
	for i := range model {
		lo := float64(i) * step
		model[i] = Interval{Lo: lo, Hi: lo + 1}
	}
	g := IntervalGraph(model).WithName(fmt.Sprintf("unitinterval-%d-%d", n, overlap))
	return g, model
}
