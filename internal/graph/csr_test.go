package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// referenceSymmetric is the per-arc symmetry check FromCSR's linear pass
// replaces: a binary search of v's list for every arc u->v.  It reports
// the first arc, in (u, v) order, that has no reverse.
func referenceSymmetric(g *Graph) error {
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: asymmetric edge %d->%d has no reverse", u, v)
			}
		}
	}
	return nil
}

// csrFromLists flattens per-node adjacency lists into CSR arrays.
func csrFromLists(lists [][]int32) (offsets []int64, adj []int32) {
	offsets = make([]int64, len(lists)+1)
	for u, l := range lists {
		adj = append(adj, l...)
		offsets[u+1] = int64(len(adj))
	}
	return offsets, adj
}

// checkNamedArc fails unless err names an arc a->b that is stored while
// b->a is not.
func checkNamedArc(t *testing.T, err error, lists [][]int32) (a, b int32) {
	t.Helper()
	if _, scanErr := fmt.Sscanf(err.Error(), "graph: asymmetric edge %d->%d has no reverse", &a, &b); scanErr != nil {
		t.Fatalf("error %q does not name an asymmetric arc: %v", err, scanErr)
	}
	if !slices.Contains(lists[a], b) || slices.Contains(lists[b], a) {
		t.Fatalf("error names %d->%d, which is not an arc without a reverse (lists %v)", a, b, lists)
	}
	return a, b
}

func TestFromCSRAcceptsBuiltGraphs(t *testing.T) {
	b := NewBuilder(9)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 4).AddEdge(4, 0).AddEdge(2, 7).AddEdge(7, 8).AddEdge(0, 8)
	for _, g := range []*Graph{b.Build(), NewBuilder(0).Build(), NewBuilder(3).Build()} {
		offsets, adj := g.RawCSR()
		h, err := FromCSR(g.Name(), g.N(), offsets, adj)
		if err != nil {
			t.Fatalf("%v rejected: %v", g, err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("FromCSR gave %v, want %v", h, g)
		}
	}
}

// TestFromCSRRejectsAsymmetric covers the ways the one-cursor-per-node
// pass can meet an arc without a reverse; each error must name an arc
// that really has none, and the one the per-arc check names first.
func TestFromCSRRejectsAsymmetric(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]int32
		arc   [2]int32
	}{
		// 0->1 is checked first and 1 lists only 2.
		{"missing reverse at first node", [][]int32{{1}, {2}, {1, 3}, {0, 2}}, [2]int32{0, 1}},
		// Everything before node 3 is symmetric; 0 and 1 never list 3.
		{"missing reverse at last node", [][]int32{{1}, {0}, {}, {0, 1}}, [2]int32{3, 0}},
		// 3 and 4 both list 1, which lists neither; 2->3 finds 3's cursor
		// stuck on the stale 1.
		{"stale extra entry", [][]int32{{}, {}, {3, 4}, {1, 2}, {1, 2}}, [2]int32{3, 1}},
		// 1 ends its list on 3, which does not list 1.
		{"stale trailing entry", [][]int32{{1}, {0, 3}, {}, {2}}, [2]int32{1, 3}},
		// 2's list is used up by 0 when 1->2 arrives.
		{"list consumed before its end", [][]int32{{2}, {2}, {0}, {0}}, [2]int32{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			offsets, adj := csrFromLists(tc.lists)
			_, err := FromCSR("", len(tc.lists), offsets, adj)
			if err == nil {
				t.Fatal("asymmetric CSR accepted")
			}
			if a, b := checkNamedArc(t, err, tc.lists); [2]int32{a, b} != tc.arc {
				t.Fatalf("error names %d->%d, want %d->%d", a, b, tc.arc[0], tc.arc[1])
			}
			if referenceSymmetric(&Graph{n: int32(len(tc.lists)), offsets: offsets, adj: adj}) == nil {
				t.Fatal("case is symmetric under the per-arc check")
			}
		})
	}
}

// FuzzFromCSR checks that FromCSR accepts exactly the graphs the per-arc
// symmetry check accepts.  The input picks n ≤ 16 and, two bytes per
// node, a neighbour bitmask, so every list is sorted and self-loop free
// and symmetry (with the arc count's parity) is what decides acceptance.
// A non-empty offs replaces the offset index built from the lists with
// raw little-endian int16s — of any length, decreasing or overshooting
// the adjacency — and FromCSR must then return exactly the serial walk's
// error, never panic.
func FuzzFromCSR(f *testing.F) {
	f.Add([]byte{3, 0b110, 0, 0b101, 0, 0b011, 0}, []byte(nil)) // triangle
	f.Add([]byte{3, 0b010, 0, 0b100, 0, 0b010, 0}, []byte(nil)) // 0->1 without reverse
	f.Add([]byte{4, 0b0010, 0, 0b1001, 0, 0, 0, 0b0100, 0}, []byte(nil))
	f.Add([]byte{16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte(nil))
	f.Add([]byte{0}, []byte(nil))
	f.Add([]byte{2, 0b10, 0, 0b01, 0}, []byte{0, 0, 5, 0, 2, 0})       // overshoots, then decreases
	f.Add([]byte{3, 0b110, 0, 0b101, 0, 0b011, 0}, []byte{0, 0, 2, 0}) // too short
	f.Fuzz(func(t *testing.T, data, offs []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 17)
		lists := make([][]int32, n)
		for u := range lists {
			var mask uint16
			if i := 1 + 2*u; i+1 < len(data) {
				mask = uint16(data[i]) | uint16(data[i+1])<<8
			}
			mask &^= 1 << u
			if n < 16 {
				mask &= 1<<n - 1
			}
			for ; mask != 0; mask &= mask - 1 {
				lists[u] = append(lists[u], int32(bits.TrailingZeros16(mask)))
			}
		}
		offsets, adj := csrFromLists(lists)
		if len(offs) > 0 {
			offsets = make([]int64, len(offs)/2)
			for i := range offsets {
				offsets[i] = int64(int16(binary.LittleEndian.Uint16(offs[2*i:])))
			}
			_, err := FromCSR("", n, offsets, adj)
			_, want := fromCSRSerial("", n, offsets, adj)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("FromCSR error %v, serial walk %v (offsets %v, adj %v)", err, want, offsets, adj)
			}
			return
		}
		want := referenceSymmetric(&Graph{n: int32(n), offsets: offsets, adj: adj})
		if len(adj)%2 != 0 && want == nil {
			want = fmt.Errorf("odd adjacency length")
		}
		_, err := FromCSR("", n, offsets, adj)
		if (err == nil) != (want == nil) {
			t.Fatalf("FromCSR error %v, per-arc check %v, lists %v", err, want, lists)
		}
		if err != nil && len(adj)%2 == 0 {
			checkNamedArc(t, err, lists)
		}
	})
}
