package dist

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"navaug/internal/xrand"
)

// twoHopRawEntry is one label entry as stored: the varint bytes of its
// rank delta and of its distance.
type twoHopRawEntry struct{ delta, dist []byte }

// twoHopRawLabel splits node v's label stream into its entries.
func twoHopRawLabel(poff []int64, blob []byte, v int) []twoHopRawEntry {
	var l []twoHopRawEntry
	for i := poff[v]; i < poff[v+1]; {
		_, j, err := twoHopCheckedUvarint(blob, i, poff[v+1])
		if err != nil {
			panic(err)
		}
		_, k, err := twoHopCheckedUvarint(blob, j, poff[v+1])
		if err != nil {
			panic(err)
		}
		l = append(l, twoHopRawEntry{blob[i:j:j], blob[j:k:k]})
		i = k
	}
	return l
}

// twoHopSpliceLabels copies an offset index and blob, replacing the
// labels of the nodes in damaged.
func twoHopSpliceLabels(poff0 []int64, blob0 []byte, damaged map[int][]twoHopRawEntry) ([]int64, []byte) {
	nodes := slices.Sorted(maps.Keys(damaged))
	poff := make([]int64, len(poff0))
	blob := make([]byte, 0, len(blob0)+64*len(nodes))
	next := 0 // the first node not yet copied
	for _, v := range nodes {
		blob = append(blob, blob0[poff0[next]:poff0[v]]...)
		for _, e := range damaged[v] {
			blob = append(append(blob, e.delta...), e.dist...)
		}
		poff[v+1] = int64(len(blob))
		next = v + 1
	}
	blob = append(blob, blob0[poff0[next]:]...)
	for v := 0; v+1 < len(poff); v++ {
		if _, ok := damaged[v]; !ok {
			poff[v+1] = poff[v] + poff0[v+1] - poff0[v]
		}
	}
	return poff, blob
}

// twoHopLabelFaults damage a node's label, which is never empty.  A packed label cannot hold a non-increasing rank (a
// delta is never negative), so out-of-range ranks stand for bad ranks.
var twoHopLabelFaults = []struct {
	name  string
	apply func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry
}{
	{"rank out of range", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[len(l)-1].delta = twoHopAppendUvarint(nil, uint32(n+rng.Intn(300)))
		return l
	}},
	{"distance out of range", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[rng.Intn(len(l))].dist = twoHopAppendUvarint(nil, uint32(n+rng.Intn(1<<20)))
		return l
	}},
	{"varint value over 31 bits", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[rng.Intn(len(l))].delta = []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
		return l
	}},
	{"varint over five bytes", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[rng.Intn(len(l))].dist = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
		return l
	}},
	{"varint truncated at stream end", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		e := &l[len(l)-1]
		e.dist = append(e.dist[:len(e.dist)-1:len(e.dist)-1], e.dist[len(e.dist)-1]|0x80)
		return l
	}},
	{"multi-byte varint cut at stream end", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[len(l)-1].dist = []byte{0x80 | byte(rng.Intn(128)), 0x80 | byte(rng.Intn(128))}
		return l
	}},
	{"multi-byte rank delta cut at stream end", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[len(l)-1] = twoHopRawEntry{delta: []byte{0x80 | byte(rng.Intn(128)), 0x80 | byte(rng.Intn(128))}}
		return l
	}},
	{"entry without distance", func(rng *xrand.RNG, n int, l []twoHopRawEntry) []twoHopRawEntry {
		l[len(l)-1].dist = nil
		return l
	}},
}

// TestTwoHopWalkRangesMatchSerial damages the labels of an oracle spanning
// many node ranges — rank deltas and distances of one to three bytes — at
// one or more nodes (random ones, ones on range boundaries, the last) and
// requires the node-range walk at several worker counts to fail with
// exactly twoHopPackedFromRawReference's error (a serial walk decoding
// every varint through the checked decoder), or to accept with its entry
// count and largest label.
func TestTwoHopWalkRangesMatchSerial(t *testing.T) {
	o := NewTwoHopWith(pathGraph(20*twoHopValidateChunk+333), TwoHopOptions{Workers: 1})
	order, poff0, blob0 := o.RawPacked()
	n := len(order)
	rng := xrand.New(5)
	pickNode := func() int {
		switch rng.Intn(5) {
		case 0:
			return n - 1 // its stream ends the blob
		case 1, 2:
			k := 1 + rng.Intn(n/twoHopValidateChunk)
			return k*twoHopValidateChunk - 1 + rng.Intn(3)
		}
		return rng.Intn(n)
	}
	trials := 300
	if testing.Short() {
		trials = 80
	}
	for trial := range trials {
		damaged := make(map[int][]twoHopRawEntry)
		var applied []string
		decrease := -1 // a node whose index entry to break
		for range 1 + trial%4 {
			v := pickNode()
			if rng.Intn(len(twoHopLabelFaults)+1) == 0 {
				decrease = max(v, 1)
				applied = append(applied, fmt.Sprintf("index decreases at %d", decrease))
				continue
			}
			l, ok := damaged[v]
			if !ok {
				l = twoHopRawLabel(poff0, blob0, v)
			}
			if len(l) == 0 {
				continue
			}
			f := twoHopLabelFaults[rng.Intn(len(twoHopLabelFaults))]
			damaged[v] = f.apply(rng, n, l)
			applied = append(applied, fmt.Sprintf("%s at %d", f.name, v))
		}
		poff, blob := twoHopSpliceLabels(poff0, blob0, damaged)
		if decrease >= 0 {
			poff[decrease] = poff[decrease+1] + 1
		}
		entries, maxLabel, wantErr := twoHopPackedFromRawReference(n, order, poff, blob)
		for _, workers := range []int{1, 2, 3, 5} {
			got, err := twoHopPackedFromRaw(n, order, poff, blob, workers)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d (%v), %d workers: error %v, serial walk %v", trial, applied, workers, err, wantErr)
			}
			if err == nil && (got.Entries() != entries || got.MaxLabel() != maxLabel) {
				t.Fatalf("trial %d (%v), %d workers: %d entries, largest label %d; serial walk %d, %d",
					trial, applied, workers, got.Entries(), got.MaxLabel(), entries, maxLabel)
			}
		}
	}
}

// TestTwoHopWalkDecodesEveryLength pins the inline decode on an oracle
// whose rank deltas and distances take one, two and three bytes,
// including at the ends of streams: the walk must accept it with the
// reference's entry count and largest label at every worker count.
func TestTwoHopWalkDecodesEveryLength(t *testing.T) {
	o := NewTwoHopWith(pathGraph(1<<15), TwoHopOptions{Workers: 1})
	order, poff, blob := o.RawPacked()
	var lengths [4]bool
	for v := 0; v+1 < len(poff); v++ {
		for i := poff[v]; i < poff[v+1]; i++ {
			l := 1
			for ; blob[i] >= 0x80; i++ {
				l++
			}
			lengths[min(l, 3)] = true
		}
	}
	if lengths != [4]bool{false, true, true, true} {
		t.Fatalf("varint lengths present %v, want one to three bytes", lengths)
	}
	entries, maxLabel, err := twoHopPackedFromRawReference(len(order), order, poff, blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := twoHopPackedFromRaw(len(order), order, poff, blob, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got.Entries() != entries || got.MaxLabel() != maxLabel {
			t.Fatalf("%d workers: %d entries, largest label %d; reference %d, %d",
				workers, got.Entries(), got.MaxLabel(), entries, maxLabel)
		}
	}
}
