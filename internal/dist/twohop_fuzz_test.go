package dist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"navaug/internal/graph"
)

// twoHopPackedFromRawReference is the packed-label validator with every
// varint decoded through the fully checked twoHopCheckedUvarint: the
// specification TwoHopPackedFromRaw's one-byte fast path must reproduce,
// rejection for rejection and error text for error text.  It returns the
// entry count and the largest label size of an accepted oracle.
func twoHopPackedFromRawReference(n int, order []graph.NodeID, poff []int64, blob []byte) (int64, int, error) {
	if n < 0 {
		return 0, 0, fmt.Errorf("dist: negative node count %d", n)
	}
	if n > twoHopMaxNodes {
		return 0, 0, fmt.Errorf("dist: node count %d exceeds the supported cap %d", n, twoHopMaxNodes)
	}
	if err := twoHopValidateOrder(n, order); err != nil {
		return 0, 0, err
	}
	if len(poff) != n+1 {
		return 0, 0, fmt.Errorf("dist: packed label index has length %d, want n+1 = %d", len(poff), n+1)
	}
	if poff[0] != 0 {
		return 0, 0, fmt.Errorf("dist: packed label index starts at %d, want 0", poff[0])
	}
	if poff[n] != int64(len(blob)) {
		return 0, 0, fmt.Errorf("dist: packed label index promises %d blob bytes, blob holds %d", poff[n], len(blob))
	}
	for v := 0; v < n; v++ {
		if poff[v] > poff[v+1] {
			return 0, 0, fmt.Errorf("dist: packed label index decreases at node %d (%d > %d)", v, poff[v], poff[v+1])
		}
	}
	var entries int64
	maxLabel := 0
	for v := 0; v < n; v++ {
		lo, hi := poff[v], poff[v+1]
		prev := int32(-1)
		size := 0
		for i := lo; i < hi; {
			delta, ni, err := twoHopCheckedUvarint(blob, i, hi)
			if err != nil {
				return 0, 0, fmt.Errorf("dist: node %d label stream: %w", v, err)
			}
			d, ni, err := twoHopCheckedUvarint(blob, ni, hi)
			if err != nil {
				return 0, 0, fmt.Errorf("dist: node %d label stream: %w", v, err)
			}
			h := int64(prev) + 1 + int64(delta)
			if h >= int64(n) {
				return 0, 0, fmt.Errorf("dist: node %d references hub rank %d out of range [0,%d)", v, h, n)
			}
			if int64(d) >= int64(n) {
				return 0, 0, fmt.Errorf("dist: node %d has label distance %d out of range [0,%d)", v, d, n)
			}
			prev = int32(h)
			i = ni
			size++
		}
		entries += int64(size)
		maxLabel = max(maxLabel, size)
	}
	return entries, maxLabel, nil
}

// fuzzInt16s encodes label arrays as little-endian int16s, the form the
// fuzzers mutate (small, and negative values stay reachable).
func fuzzInt16s[T int32 | int64](v []T) []byte {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(x)))
	}
	return b
}

// fuzzDecodeInt16s is fuzzInt16s's inverse (a trailing odd byte is
// dropped).
func fuzzDecodeInt16s[T int32 | int64](b []byte) []T {
	v := make([]T, len(b)/2)
	for i := range v {
		v[i] = T(int16(binary.LittleEndian.Uint16(b[2*i:])))
	}
	return v
}

// FuzzTwoHopPackedFromRaw mutates the label index and varint blob of a
// small packed oracle — a 200-node path, whose labels hold 2-byte rank
// deltas and distances — and checks the load-time validator against
// twoHopPackedFromRawReference: both must accept and reject the same
// inputs with the same error.  Every accepted oracle must then answer
// unpinned and pinned Dist on sampled pairs exactly as its Unpack() does,
// without panicking, and report the reference's entry count and largest
// label.
func FuzzTwoHopPackedFromRaw(f *testing.F) {
	order, poff, valid := NewTwoHopWith(pathGraph(200), TwoHopOptions{Workers: 1}).RawPacked()
	n := len(order)
	f.Add(fuzzInt16s(poff), valid)
	f.Add(fuzzInt16s(poff), valid[:len(valid)-1])
	trunc := append([]byte(nil), valid...)
	trunc[len(trunc)-1] |= 0x80
	f.Add(fuzzInt16s(poff), trunc)
	long := append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, valid...)
	shifted := append([]int64(nil), poff...)
	for i := 1; i < len(shifted); i++ {
		shifted[i] += 5
	}
	f.Add(fuzzInt16s(shifted), long)
	swapped := append([]int64(nil), poff...)
	swapped[1], swapped[2] = 1<<14, swapped[1]
	f.Add(fuzzInt16s(swapped), valid)

	f.Fuzz(func(t *testing.T, offs, blob []byte) {
		poff := fuzzDecodeInt16s[int64](offs)
		entries, maxLabel, refErr := twoHopPackedFromRawReference(n, order, poff, blob)
		o, err := TwoHopPackedFromRaw(n, order, poff, blob)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("validator error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if o.entries != entries || o.MaxLabel() != maxLabel {
			t.Fatalf("entries/max label %d/%d, reference %d/%d", o.entries, o.MaxLabel(), entries, maxLabel)
		}
		raw := o.Unpack()
		var pin TwoHopPin
		for k := 0; k < 12; k++ {
			tgt := graph.NodeID(k * 53 % n)
			pin.Pin(o, tgt)
			for j := 0; j < 8; j++ {
				u := graph.NodeID((k*31 + j*17) % n)
				want := raw.Dist(u, tgt)
				if got := o.Dist(u, tgt); got != want {
					t.Fatalf("packed Dist(%d,%d) = %d, unpacked %d", u, tgt, got, want)
				}
				if got := pin.Dist(u, tgt); got != want {
					t.Fatalf("pinned Dist(%d,%d) = %d, unpacked %d", u, tgt, got, want)
				}
			}
		}
	})
}

// rawMergeDist is the reference FuzzTwoHopFromRaw holds converted oracles
// to: the smallest dist(u, h) + dist(h, v) over every hub h that appears
// in both legacy raw labels, by plain nested loops.
func rawMergeDist(index []int64, hubs, dists []int32, u, v graph.NodeID) int32 {
	if u == v {
		return 0
	}
	best, found := int32(0), false
	for i := index[u]; i < index[u+1]; i++ {
		for j := index[v]; j < index[v+1]; j++ {
			if hubs[i] == hubs[j] && (!found || dists[i]+dists[j] < best) {
				best, found = dists[i]+dists[j], true
			}
		}
	}
	if !found {
		return graph.Unreachable
	}
	return best
}

// FuzzTwoHopFromRaw mutates the legacy raw label arrays (hub order, label
// index, hub ranks, distances) of a 200-node path, the layout old
// snapshots store, and feeds them to the load-time converter.  Each input
// must be rejected without a panic, or yield an oracle whose packed
// arrays TwoHopPackedFromRaw accepts and whose unpinned and pinned Dist
// answers on sampled pairs equal rawMergeDist over the input arrays.
func FuzzTwoHopFromRaw(f *testing.F) {
	order, index, hubs, dists := twoHopLegacyArrays(NewTwoHopWith(pathGraph(200), TwoHopOptions{Workers: 1}))
	n := len(order)
	f.Add(fuzzInt16s(order), fuzzInt16s(index), fuzzInt16s(hubs), fuzzInt16s(dists))
	f.Add(fuzzInt16s(order), fuzzInt16s(index), fuzzInt16s(hubs), fuzzInt16s(dists[1:]))
	swapped := slices.Clone(order)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	f.Add(fuzzInt16s(swapped), fuzzInt16s(index), fuzzInt16s(hubs), fuzzInt16s(dists))
	far := slices.Clone(dists)
	far[len(far)-1] = int32(n)
	f.Add(fuzzInt16s(order), fuzzInt16s(index), fuzzInt16s(hubs), fuzzInt16s(far))
	repeat := slices.Clone(hubs)
	repeat[1] = repeat[0]
	f.Add(fuzzInt16s(order), fuzzInt16s(index), fuzzInt16s(repeat), fuzzInt16s(dists))

	f.Fuzz(func(t *testing.T, orderB, indexB, hubsB, distsB []byte) {
		order := fuzzDecodeInt16s[int32](orderB)
		index := fuzzDecodeInt16s[int64](indexB)
		hubs := fuzzDecodeInt16s[int32](hubsB)
		dists := fuzzDecodeInt16s[int32](distsB)
		o, err := TwoHopFromRaw(n, order, index, hubs, dists)
		if err != nil {
			return
		}
		po, pp, pb := o.RawPacked()
		reloaded, err := TwoHopPackedFromRaw(n, po, pp, pb)
		if err != nil {
			t.Fatalf("converted oracle's packed arrays rejected: %v", err)
		}
		if reloaded.entries != o.entries || reloaded.MaxLabel() != o.MaxLabel() {
			t.Fatalf("entries/max label %d/%d after reload, %d/%d converted",
				reloaded.entries, reloaded.MaxLabel(), o.entries, o.MaxLabel())
		}
		var pin TwoHopPin
		for k := 0; k < 12; k++ {
			tgt := graph.NodeID(k * 53 % n)
			pin.Pin(o, tgt)
			for j := 0; j < 8; j++ {
				u := graph.NodeID((k*31 + j*17) % n)
				want := rawMergeDist(index, hubs, dists, u, tgt)
				if got := o.Dist(u, tgt); got != want {
					t.Fatalf("Dist(%d,%d) = %d, raw merge %d", u, tgt, got, want)
				}
				if got := pin.Dist(u, tgt); got != want {
					t.Fatalf("pinned Dist(%d,%d) = %d, raw merge %d", u, tgt, got, want)
				}
			}
		}
	})
}
