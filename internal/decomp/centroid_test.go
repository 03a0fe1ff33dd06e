package decomp

import (
	"fmt"
	"slices"
	"testing"

	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

// refCentroidBags is the straightforward hash-map centroid decomposition
// that the dense centroidScratch replaced, kept as the differential
// reference: it finds a centroid, decomposes each remaining component, then
// concatenates those bag lists and adds the centroid to every bag.
func refCentroidBags(g *graph.Graph, nodes []graph.NodeID) [][]graph.NodeID {
	if len(nodes) == 0 {
		return nil
	}
	if len(nodes) == 1 {
		return [][]graph.NodeID{{nodes[0]}}
	}
	inSet := make(map[graph.NodeID]bool, len(nodes))
	for _, v := range nodes {
		inSet[v] = true
	}
	c := refCentroid(g, nodes, inSet)
	delete(inSet, c)
	var comps [][]graph.NodeID
	visited := make(map[graph.NodeID]bool, len(nodes))
	for _, root := range g.Neighbors(c) {
		if !inSet[root] || visited[root] {
			continue
		}
		comp := []graph.NodeID{root}
		visited[root] = true
		for head := 0; head < len(comp); head++ {
			for _, v := range g.Neighbors(comp[head]) {
				if inSet[v] && !visited[v] {
					visited[v] = true
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	var bags [][]graph.NodeID
	for _, comp := range comps {
		for _, bag := range refCentroidBags(g, comp) {
			bags = append(bags, append(bag, c))
		}
	}
	if len(bags) == 0 {
		bags = [][]graph.NodeID{{c}}
	}
	return bags
}

// refCentroid returns the node of the induced subtree minimising the
// largest component left by its removal, first in DFS preorder from
// nodes[0] on ties.
func refCentroid(g *graph.Graph, nodes []graph.NodeID, inSet map[graph.NodeID]bool) graph.NodeID {
	total := len(nodes)
	root := nodes[0]
	size := make(map[graph.NodeID]int, total)
	parent := map[graph.NodeID]graph.NodeID{root: -1}
	seen := map[graph.NodeID]bool{root: true}
	var order []graph.NodeID
	stack := []graph.NodeID{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, v := range g.Neighbors(u) {
			if inSet[v] && !seen[v] {
				seen[v] = true
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		size[u]++
		if p := parent[u]; p != -1 {
			size[p] += size[u]
		}
	}
	best, bestWorst := root, total
	for _, u := range order {
		worst := total - size[u]
		for _, v := range g.Neighbors(u) {
			if inSet[v] && parent[v] == u && size[v] > worst {
				worst = size[v]
			}
		}
		if worst < bestWorst {
			bestWorst, best = worst, u
		}
	}
	return best
}

// TestTreeCentroidMatchesReference pins the dense centroid decomposition to
// the hash-map reference bag for bag, both before and after Reduce, and
// checks validity and the ⌈log₂ n⌉+1 width bound.
func TestTreeCentroidMatchesReference(t *testing.T) {
	type treeCase struct {
		name string
		g    *graph.Graph
	}
	var cases []treeCase
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 100, 257, 1000, 5000} {
		cases = append(cases,
			treeCase{fmt.Sprintf("path-%d", n), gen.Path(n)},
			treeCase{fmt.Sprintf("star-%d", n), gen.Star(n)},
			treeCase{fmt.Sprintf("random-%d", n), gen.RandomTree(n, xrand.New(uint64(n)))},
		)
	}
	for _, s := range [][2]int{{1, 1}, {3, 1}, {2, 7}, {5, 20}, {64, 3}, {7, 700}} {
		cases = append(cases, treeCase{fmt.Sprintf("spider-%dx%d", s[0], s[1]), gen.Spider(s[0], s[1])})
	}
	for _, c := range [][2]int{{1, 0}, {1, 4}, {10, 0}, {17, 2}, {100, 5}, {1000, 4}} {
		cases = append(cases, treeCase{fmt.Sprintf("caterpillar-%dx%d", c[0], c[1]), gen.Caterpillar(c[0], c[1])})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			all := make([]graph.NodeID, n)
			for i := range all {
				all[i] = graph.NodeID(i)
			}
			want := NewPathDecomposition(refCentroidBags(g, all))
			got := centroidBags(g)
			if len(got) != want.B() {
				t.Fatalf("%d bags, reference has %d", len(got), want.B())
			}
			for i := range got {
				if !slices.Equal(got[i], want.Bags[i]) {
					t.Fatalf("bag %d = %v, reference %v", i, got[i], want.Bags[i])
				}
			}

			pd, err := TreeCentroid(g)
			if err != nil {
				t.Fatal(err)
			}
			wantReduced := want.Reduce()
			if pd.B() != wantReduced.B() {
				t.Fatalf("%d reduced bags, reference has %d", pd.B(), wantReduced.B())
			}
			for i := range pd.Bags {
				if !slices.Equal(pd.Bags[i], wantReduced.Bags[i]) {
					t.Fatalf("reduced bag %d = %v, reference %v", i, pd.Bags[i], wantReduced.Bags[i])
				}
			}
			if err := pd.Validate(g); err != nil {
				t.Fatal(err)
			}
			bound := 1 // ⌈log₂ n⌉ + 1
			for s := 1; s < n; s *= 2 {
				bound++
			}
			if pd.Width() > bound {
				t.Fatalf("width %d exceeds ⌈log₂ n⌉+1 = %d", pd.Width(), bound)
			}
		})
	}
}
