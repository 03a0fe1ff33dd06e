package graph

import (
	"slices"
	"testing"
)

// FuzzDynGraph drives a DynGraph through a stream of valid delta batches
// decoded from the fuzz bytes and, after every batch (and after every
// Rebase the stream asks for), checks each read path against a CSR rebuilt
// from an independently kept edge set: Edges, M, Degree, HasEdge,
// AppendNeighbors, BFSInto from every source, OverlayEmpty, and Compact
// byte for byte.
//
// The base graph comes from baseEdges, read as node pairs mod n.  The
// stream is read three bytes per op: two endpoints mod n and a control
// byte.  An op toggles its edge — deleting it when present, inserting it
// otherwise — so toggling one pair twice in a batch is a delete followed by
// a re-insert (or the reverse).  Control bit 0 ends the batch, bit 1
// rebases after it, bit 2 swaps the endpoints of the delta.
func FuzzDynGraph(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, []byte{0, 1, 0, 1, 0, 1, 2, 5, 3})
	f.Add(uint8(3), []byte{0, 1}, []byte{0, 1, 1, 0, 1, 5, 0, 2, 0, 0, 2, 2})
	f.Add(uint8(12), []byte{0, 5, 5, 9, 9, 11, 1, 2}, []byte{5, 0, 4, 3, 4, 1, 3, 4, 3, 0, 9, 6, 7, 8, 1})
	f.Add(uint8(1), []byte{}, []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, rawN uint8, baseEdges, stream []byte) {
		n := int(rawN)%32 + 1
		b := NewBuilder(n)
		for i := 0; i+1 < len(baseEdges); i += 2 {
			if u, v := NodeID(int(baseEdges[i])%n), NodeID(int(baseEdges[i+1])%n); u != v {
				b.AddEdge(u, v)
			}
		}
		base := b.Build()
		d := NewDynGraph(base)
		has := make([]bool, n*n) // the reference edge set, both orientations
		for _, e := range base.Edges() {
			has[int(e.U)*n+int(e.V)], has[int(e.V)*n+int(e.U)] = true, true
		}

		var batch []Delta
		flush := func(rebase bool) {
			if err := d.Apply(batch); err != nil {
				t.Fatalf("valid batch %v rejected: %v", batch, err)
			}
			batch = batch[:0]
			checkDynGraph(t, d, has)
			if rebase {
				gen := d.Gen()
				if d.Rebase() != d.Base() || !d.OverlayEmpty() || d.Gen() != gen {
					t.Fatal("Rebase did not install a fresh base with an empty overlay")
				}
				checkDynGraph(t, d, has)
			}
		}
		for i := 0; i+2 < len(stream); i += 3 {
			u, v, ctl := NodeID(int(stream[i])%n), NodeID(int(stream[i+1])%n), stream[i+2]
			if u != v {
				op := DeltaInsert
				if has[int(u)*n+int(v)] {
					op = DeltaDelete
				}
				has[int(u)*n+int(v)] = op == DeltaInsert
				has[int(v)*n+int(u)] = op == DeltaInsert
				if ctl&4 != 0 {
					u, v = v, u
				}
				batch = append(batch, Delta{U: u, V: v, Op: op})
			}
			if ctl&1 != 0 {
				flush(ctl&2 != 0)
			}
		}
		flush(false)
	})
}

// checkDynGraph compares every read path of d against a CSR built from the
// reference adjacency matrix has.
func checkDynGraph(t *testing.T, d *DynGraph, has []bool) {
	t.Helper()
	n := d.N()
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if has[u*n+v] {
				edges = append(edges, Edge{U: NodeID(u), V: NodeID(v)})
			}
		}
	}
	want := fromEdges(n, edges)

	if got := d.Edges(); !slices.Equal(got, want.Edges()) {
		t.Fatalf("Edges() = %v, want %v", got, want.Edges())
	}
	if int(d.m) != want.M() {
		t.Fatalf("edge count %d, want %d", int(d.m), want.M())
	}
	baseOff, baseAdj := d.Base().RawCSR()
	wantOff, wantAdj := want.RawCSR()
	equalsBase := slices.Equal(baseOff, wantOff) && slices.Equal(baseAdj, wantAdj)
	if d.OverlayEmpty() != equalsBase {
		t.Fatalf("OverlayEmpty() = %v, but the edge set equals the base: %v", d.OverlayEmpty(), equalsBase)
	}
	c := d.Compact()
	if gotOff, gotAdj := c.RawCSR(); !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("Compact CSR (%v, %v), want (%v, %v)", gotOff, gotAdj, wantOff, wantAdj)
	}
	if d.OverlayEmpty() && c != d.Base() {
		t.Fatal("Compact of an empty overlay is not the base itself")
	}

	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for u := NodeID(0); int(u) < n; u++ {
		if d.Degree(u) != want.Degree(u) {
			t.Fatalf("Degree(%d) = %d, want %d", u, d.Degree(u), want.Degree(u))
		}
		for v := NodeID(0); int(v) < n; v++ {
			if u != v && d.HasEdge(u, v) != has[int(u)*n+int(v)] {
				t.Fatalf("HasEdge(%d,%d) = %v", u, v, d.HasEdge(u, v))
			}
		}
		nbr := d.AppendNeighbors([]NodeID{-7}, u)
		if nbr[0] != -7 || !slices.Equal(nbr[1:], want.Neighbors(u)) {
			t.Fatalf("AppendNeighbors(%d) = %v, want [-7] + %v", u, nbr, want.Neighbors(u))
		}
		for i := range dist {
			dist[i] = Unreachable
		}
		reached := d.BFSInto(u, dist, queue)
		wantDist := want.BFS(u)
		if !slices.Equal(dist, wantDist) {
			t.Fatalf("BFSInto(%d) = %v, want %v", u, dist, wantDist)
		}
		if wantReached := n - count(wantDist, Unreachable); reached != wantReached {
			t.Fatalf("BFSInto(%d) reached %d, want %d", u, reached, wantReached)
		}
	}
}

// count returns how many entries of s equal x.
func count(s []int32, x int32) int {
	c := 0
	for _, y := range s {
		if y == x {
			c++
		}
	}
	return c
}
