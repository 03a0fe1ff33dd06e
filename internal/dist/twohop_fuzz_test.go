package dist

import (
	"encoding/binary"
	"fmt"
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

// fuzzOffsets encodes a packed index as little-endian int16s, the form
// the fuzzer mutates (small, and negative values stay reachable).
func fuzzOffsets(poff []int64) []byte {
	b := make([]byte, 0, 2*len(poff))
	for _, o := range poff {
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(o)))
	}
	return b
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
	order, poff, valid := NewTwoHopWith(pathGraph(200), TwoHopOptions{Workers: 1, Packed: true}).RawPacked()
	n := len(order)
	f.Add(fuzzOffsets(poff), valid)
	f.Add(fuzzOffsets(poff), valid[:len(valid)-1])
	trunc := append([]byte(nil), valid...)
	trunc[len(trunc)-1] |= 0x80
	f.Add(fuzzOffsets(poff), trunc)
	long := append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, valid...)
	shifted := append([]int64(nil), poff...)
	for i := 1; i < len(shifted); i++ {
		shifted[i] += 5
	}
	f.Add(fuzzOffsets(shifted), long)
	swapped := append([]int64(nil), poff...)
	swapped[1], swapped[2] = 1<<14, swapped[1]
	f.Add(fuzzOffsets(swapped), valid)

	f.Fuzz(func(t *testing.T, offs, blob []byte) {
		poff := make([]int64, len(offs)/2)
		for i := range poff {
			poff[i] = int64(int16(binary.LittleEndian.Uint16(offs[2*i:])))
		}
		entries, maxLabel, refErr := twoHopPackedFromRawReference(n, order, poff, blob)
		o, err := TwoHopPackedFromRaw(n, order, poff, blob)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("validator error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if o.Entries() != entries || o.MaxLabel() != maxLabel {
			t.Fatalf("entries/max label %d/%d, reference %d/%d", o.Entries(), o.MaxLabel(), entries, maxLabel)
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
