package gen

import (
	"fmt"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// RandomTree returns a uniformly random labelled tree on n nodes, generated
// by decoding a random Prüfer sequence.  For n <= 2 the unique tree is
// returned.
func RandomTree(n int, rng *xrand.RNG) *graph.Graph {
	requirePositive(n, "RandomTree")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("rtree-%d", n))
	if n == 1 {
		return b.Build()
	}
	if n == 2 {
		return b.AddEdge(0, 1).Build()
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	// Standard Prüfer decoding with a pointer scan: no heap needed because we
	// always pick the smallest leaf.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		b.AddEdge(int32(leaf), int32(v))
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Join the last two leaves: leaf and n-1.
	b.AddEdge(int32(leaf), int32(n-1))
	return b.Build()
}

// RandomAttachmentTree returns a random recursive tree: node v (v >= 1)
// attaches to a uniformly random earlier node.  Such trees have expected
// depth O(log n), so they are good polylog-navigability test cases.
func RandomAttachmentTree(n int, rng *xrand.RNG) *graph.Graph {
	requirePositive(n, "RandomAttachmentTree")
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("ratree-%d", n))
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi graph G(n,p).  The result may be disconnected;
// use ConnectedGNP when connectivity is required.
func GNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	requirePositive(n, "GNP")
	if p < 0 || p > 1 {
		panic("gen: GNP requires p in [0,1]")
	}
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("gnp-%d-%g", n, p))
	if p == 0 {
		return b.Build()
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b.AddEdge(int32(i), int32(j))
			}
		}
		return b.Build()
	}
	// Batagelj–Brandes geometric skipping over the (n choose 2) potential
	// edges keeps the cost proportional to the number of edges generated.
	v, w := 1, -1
	for v < n {
		w += 1 + rng.Geometric(p)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(int32(v), int32(w))
		}
	}
	return b.Build()
}

// ConnectedGNP returns G(n,p) made connected by chaining the components with
// random bridge edges.  The bridges slightly bias the model but preserve the
// sparse, locally unstructured character needed by the experiments.
func ConnectedGNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	g := GNP(n, p, rng)
	comps := g.Components()
	if len(comps) == 1 {
		return g.WithName(fmt.Sprintf("cgnp-%d-%g", n, p))
	}
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("cgnp-%d-%g", n, p))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for i := 1; i < len(comps); i++ {
		u := comps[i-1][rng.Intn(len(comps[i-1]))]
		v := comps[i][rng.Intn(len(comps[i]))]
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RandomRegular returns a random d-regular simple graph on n nodes using the
// configuration model with restarts.  It returns an error if n*d is odd,
// d >= n, or no simple pairing is found within a generous retry budget.
func RandomRegular(n, d int, rng *xrand.RNG) (*graph.Graph, error) {
	if n < 1 || d < 0 {
		return nil, fmt.Errorf("gen: RandomRegular requires n >= 1, d >= 0")
	}
	if d >= n {
		return nil, fmt.Errorf("gen: RandomRegular requires d < n (got d=%d, n=%d)", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: RandomRegular requires n*d even (got n=%d, d=%d)", n, d)
	}
	if d == 0 {
		return graph.NewBuilder(n).SetName(fmt.Sprintf("regular-%d-%d", n, d)).Build(), nil
	}
	// The pairing is simple with probability ~e^{-λ-λ²}, λ = (d-1)/2,
	// independently of n — about 2.4% per attempt at d=4, 0.25% at d=5 —
	// so the expected attempt count is a (d-dependent) constant and the
	// budget only bounds the astronomically unlikely tail: at d=4 the
	// failure probability under 5000 attempts is e^{-120}.  (200 attempts,
	// the previous budget, failed a real E12 build at n=16384: that is a
	// 0.8% event per graph, far too often for a deterministic suite.)
	// Failed attempts are cheap — the scan breaks at the first collision.
	const maxAttempts = 5000
	stubs := make([]int32, 0, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs = append(stubs, int32(v))
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		ok := true
		seen := make(map[[2]int32]bool, len(stubs)/2)
		b := graph.NewBuilder(n).SetName(fmt.Sprintf("regular-%d-%d", n, d))
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			key := [2]int32{min32(u, v), max32(u, v)}
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			b.AddEdge(u, v)
		}
		if ok {
			return b.Build(), nil
		}
	}
	return nil, fmt.Errorf("gen: RandomRegular(%d,%d) failed to find a simple pairing", n, d)
}

// WattsStrogatz returns a Watts–Strogatz small-world substrate: a ring where
// every node connects to its k nearest neighbours on each side, with each
// edge rewired to a random endpoint with probability beta.  Rewiring keeps
// the graph connected by never removing ring edges to immediate neighbours.
func WattsStrogatz(n, k int, beta float64, rng *xrand.RNG) *graph.Graph {
	if n < 3 || k < 1 || 2*k >= n {
		panic("gen: WattsStrogatz requires n >= 3 and 1 <= k < n/2")
	}
	if beta < 0 || beta > 1 {
		panic("gen: WattsStrogatz requires beta in [0,1]")
	}
	b := graph.NewBuilder(n).SetName(fmt.Sprintf("ws-%d-%d-%g", n, k, beta))
	for u := 0; u < n; u++ {
		for off := 1; off <= k; off++ {
			v := (u + off) % n
			// Keep the off==1 ring intact so connectivity is guaranteed.
			if off > 1 && rng.Float64() < beta {
				w := rng.Intn(n)
				for w == u || w == v {
					w = rng.Intn(n)
				}
				v = w
			}
			if u != v {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
