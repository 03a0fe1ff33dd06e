package graph

import (
	"fmt"
	"slices"
	"testing"

	"navaug/internal/xrand"
)

// fromCSRSerial is FromCSR as one serial walk in node order — the index,
// then every list, then symmetry — the specification the node-range
// check must reproduce, error text for error text, at every worker count.
func fromCSRSerial(name string, n int, offsets []int64, adj []int32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: offsets has length %d, want n+1 = %d", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets[n] = %d, adjacency has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency length %d (undirected graphs store each edge twice)", len(adj))
	}
	for u := 0; u < n; u++ {
		if offsets[u] > offsets[u+1] {
			return nil, fmt.Errorf("graph: offsets decrease at node %d (%d > %d)", u, offsets[u], offsets[u+1])
		}
	}
	for u := 0; u < n; u++ {
		prev := int32(-1)
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			if v < 0 || v >= int32(n) {
				return nil, fmt.Errorf("graph: neighbour %d of node %d out of range [0,%d)", v, u, n)
			}
			if v == int32(u) {
				return nil, fmt.Errorf("graph: self-loop at node %d", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: adjacency of node %d not strictly increasing (%d after %d)", u, v, prev)
			}
			prev = v
		}
	}
	g := &Graph{n: int32(n), m: int64(len(adj)) / 2, offsets: offsets, adj: adj, name: name}
	if err := g.checkSymmetric(); err != nil {
		return nil, err
	}
	return g, nil
}

// listRange is u's list in adj, or an empty range when an earlier fault
// broke u's offsets.
func listRange(u int, offsets []int64, adj []int32) (lo, hi int64) {
	lo, hi = offsets[u], offsets[u+1]
	if lo < 0 || lo > hi || hi > int64(len(adj)) {
		return 0, 0
	}
	return lo, hi
}

// csrFault is one way to damage a CSR at node u; it reports false when
// u's list gives it nothing to damage.
type csrFault struct {
	name  string
	apply func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool
}

var csrFaults = []csrFault{
	{"neighbour out of range", func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool {
		lo, hi := listRange(u, offsets, adj)
		if lo == hi {
			return false
		}
		adj[lo+rng.Int63()%(hi-lo)] = []int32{-1, int32(n), int32(n) + 7}[rng.Intn(3)]
		return true
	}},
	{"self-loop", func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool {
		lo, hi := listRange(u, offsets, adj)
		if lo == hi {
			return false
		}
		adj[lo+rng.Int63()%(hi-lo)] = int32(u)
		return true
	}},
	{"unsorted list", func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool {
		lo, hi := listRange(u, offsets, adj)
		if hi-lo < 2 {
			return false
		}
		k := lo + rng.Int63()%(hi-lo-1)
		if rng.Bool() {
			adj[k], adj[k+1] = adj[k+1], adj[k]
		} else {
			adj[k+1] = adj[k] // a duplicate
		}
		return true
	}},
	{"missing reverse", func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool {
		// Move one neighbour to a node strictly between its list
		// neighbours, keeping the list sorted: the old arc loses its
		// reverse and the new one has none.
		lo, hi := listRange(u, offsets, adj)
		if lo == hi {
			return false
		}
		k := lo + rng.Int63()%(hi-lo)
		below, above := int32(-1), int32(n)
		if k > lo {
			below = adj[k-1]
		}
		if k+1 < hi {
			above = adj[k+1]
		}
		if above-below < 3 {
			return false // no room (or an earlier fault unsorted the list)
		}
		for range 8 {
			w := below + 1 + int32(rng.Intn(int(above-below-1)))
			if w != adj[k] && w != int32(u) {
				adj[k] = w
				return true
			}
		}
		return false
	}},
	{"offsets decrease", func(rng *xrand.RNG, n, u int, offsets []int64, adj []int32) bool {
		if u == 0 || u == n {
			return false
		}
		if rng.Bool() {
			offsets[u] = offsets[u+1] + 1 + rng.Int63()%3
		} else {
			offsets[u] = int64(len(adj)) + 5 // overshoots adj, decreases later
		}
		return true
	}},
}

// TestFromCSRRangesMatchSerial damages a random graph of several node
// ranges at one or more nodes — random ones and ones on range boundaries
// — and requires the node-range check at several worker counts to fail
// with exactly the serial walk's error, or to accept exactly what it
// accepts.
func TestFromCSRRangesMatchSerial(t *testing.T) {
	rng := xrand.New(11)
	base := randomTestGraph(3*csrChunk+777, 6*csrChunk, rng)
	n := base.N()
	offsets0, adj0 := base.RawCSR()
	pickNode := func() int {
		if rng.Bool() {
			k := 1 + rng.Intn(n/csrChunk)
			return min(k*csrChunk-1+rng.Intn(3), n-1)
		}
		return rng.Intn(n)
	}
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for trial := range trials {
		offsets, adj := slices.Clone(offsets0), slices.Clone(adj0)
		var applied []string
		for range 1 + trial%4 {
			f := csrFaults[rng.Intn(len(csrFaults))]
			u := pickNode()
			if f.apply(rng, n, u, offsets, adj) {
				applied = append(applied, fmt.Sprintf("%s at %d", f.name, u))
			}
		}
		want, wantErr := fromCSRSerial("r", n, offsets, adj)
		for _, workers := range []int{1, 2, 3, 5} {
			got, err := fromCSR("r", n, offsets, adj, workers)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d (%v), %d workers: error %v, serial walk %v", trial, applied, workers, err, wantErr)
			}
			if err == nil && (got.N() != want.N() || got.M() != want.M()) {
				t.Fatalf("trial %d (%v), %d workers: accepted %v, serial walk %v", trial, applied, workers, got, want)
			}
		}
	}
}

// TestFromCSROvershootingOffsets is the index that once sent FromCSR
// slicing past the end of adj: node 0's list overshoots and node 1's
// range then runs backwards.
func TestFromCSROvershootingOffsets(t *testing.T) {
	_, err := FromCSR("x", 2, []int64{0, 5, 2}, []int32{1, 0})
	if want := "graph: offsets decrease at node 1 (5 > 2)"; fmt.Sprint(err) != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
