package snapshot_test

// Error precedence with several faults in one file.  The reader may check
// sections in any order internally, but the answer must be the one a
// front-to-back reader gives: the strict reader returns the error of the
// first failing decision in table order (layout and checksums, then the
// in-table decodes, then the cross-referencing sections), and the tolerant
// reader quarantines in that same order.  Every expectation below is what
// a strictly sequential reader reports for the same bytes.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

// flipPayload damages the first payload byte of section i without
// touching its table checksum, so only the payload CRC notices.
func flipPayload(b []byte, i int) []byte {
	off := binary.LittleEndian.Uint64(b[24+40*i+8:])
	b[off] ^= 0xFF
	return b
}

// flipped fills in, per format version, the recorded and computed
// checksums a mismatch error names for the torus-64 graph and 2-hop
// payloads below with their first byte flipped.
var flipped = map[uint32]*strings.Replacer{
	1: strings.NewReplacer(
		"{graph}", "file b6cbf2fd94eeae73, computed 3db825ea96eb931d",
		"{twohop}", "file 72c625a7210ec625, computed ce511e502e39ed84"),
	2: strings.NewReplacer(
		"{graph}", "file 0000000093a49794, computed 0000000047269d85",
		"{twohop}", "file 0000000028ae6c6b, computed 000000004541c5b5"),
}

func TestReadMultiFaultPrecedence(t *testing.T) {
	_, base := buildCase(t, "torus", 64, dist.PolicyTwoHop, "ball")
	secs := parseSecs(t, base)
	if len(secs) != 5 {
		t.Fatalf("base snapshot has %d sections, expected 5", len(secs))
	}
	// The writer's order: meta, graph, metric, twohop, scheme.
	meta, g, mt, th, sc := secs[0], secs[1], secs[2], secs[3], secs[4]

	// A scheme section that parses past its checksum but declares no draws.
	zeroDraws := sc
	zeroDraws.payload = clone(sc.payload)
	binary.LittleEndian.PutUint64(zeroDraws.payload, 0)

	// A metric section whose name length exceeds the cap: a parse error in
	// the table pass.
	badMetric := mt
	badMetric.payload = clone(mt.payload)
	binary.LittleEndian.PutUint64(badMetric.payload, snapshot.MaxNameLen+1)

	// A well-formed metric descriptor naming another graph: it fails only
	// when resolved after the table pass.
	alien := []byte("bogus-metric-name")
	alienMetric := rawSec{mt.kind, make([]byte, 8+((len(alien)+7)&^7))}
	binary.LittleEndian.PutUint64(alienMetric.payload, uint64(len(alien)))
	copy(alienMetric.payload[8:], alien)

	// A 2-hop section that claims one node fewer than the graph; the rest
	// of it then misparses too, and the node-count error must win.
	shortTwoHop := th
	shortTwoHop.payload = clone(th.payload)
	binary.LittleEndian.PutUint64(shortTwoHop.payload, 63)

	// A graph whose first adjacency entry is turned into a self-loop, which
	// graph.FromCSR rejects after the checksum passes.
	badGraph := g
	badGraph.payload = clone(g.payload)
	nameLen := int(binary.LittleEndian.Uint64(g.payload[16:]))
	adjAt := 24 + ((nameLen + 7) &^ 7) + 8*65
	v := binary.LittleEndian.Uint32(badGraph.payload[adjAt:])
	binary.LittleEndian.PutUint32(badGraph.payload[adjAt:], v^1)

	// The same node-count lie in a legacy raw 2-hop section, whose decoder
	// checks the count at the same point.
	legacy := parseSecs(t, legacyRawBytes(t))
	if len(legacy) != 4 {
		t.Fatalf("legacy fixture has %d sections, expected 4", len(legacy))
	}
	shortRaw := legacy[2]
	shortRaw.payload = clone(shortRaw.payload)
	binary.LittleEndian.PutUint64(shortRaw.payload, 47)
	legacyZeroDraws := legacy[3]
	legacyZeroDraws.payload = clone(legacyZeroDraws.payload)
	binary.LittleEndian.PutUint64(legacyZeroDraws.payload, 0)

	cases := []struct {
		name      string
		build     func(v uint32) []byte
		strict    string   // the strict reader's error
		tolerant  string   // the tolerant reader's error, "" if it loads
		quarantin []string // what a tolerant load quarantines
	}{
		{
			name:     "graph and twohop checksums",
			build:    func(v uint32) []byte { return flipPayload(flipPayload(assemble(v, secs), 1), 3) },
			strict:   "snapshot: section 1 (kind 2) checksum mismatch ({graph})",
			tolerant: "snapshot: section 1 (kind 2) checksum mismatch ({graph})",
		},
		{
			name: "twohop checksum before graph checksum",
			build: func(v uint32) []byte {
				return flipPayload(flipPayload(assemble(v, []rawSec{meta, th, g, mt, sc}), 1), 2)
			},
			strict:   "snapshot: section 1 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: section 2 (kind 2) checksum mismatch ({graph})",
		},
		{
			name:      "twohop checksum and scheme parse",
			build:     func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, mt, th, zeroDraws, sc}), 3) },
			strict:    "snapshot: section 3 (kind 6) checksum mismatch ({twohop})",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:      "scheme parse before twohop checksum",
			build:     func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, sc, zeroDraws, mt, th}), 5) },
			strict:    "snapshot: section 5 (kind 6) checksum mismatch ({twohop})",
			quarantin: []string{"twohop", "scheme[1]"},
		},
		{
			name:      "metric parse and twohop checksum",
			build:     func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, badMetric, th, sc}), 3) },
			strict:    "snapshot: metric name length 4097 exceeds cap 4096",
			quarantin: []string{"metric", "twohop"},
		},
		{
			name:      "twohop checksum before metric parse",
			build:     func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, th, badMetric, sc}), 2) },
			strict:    "snapshot: section 2 (kind 6) checksum mismatch ({twohop})",
			quarantin: []string{"twohop", "metric"},
		},
		{
			name:      "metric resolve and twohop checksum",
			build:     func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, alienMetric, th, sc}), 3) },
			strict:    "snapshot: section 3 (kind 6) checksum mismatch ({twohop})",
			quarantin: []string{"twohop", "metric"},
		},
		{
			name:      "twohop node count and scheme parse",
			build:     func(v uint32) []byte { return assemble(v, []rawSec{meta, g, zeroDraws, shortTwoHop, sc}) },
			strict:    "snapshot: 2-hop section covers 63 nodes, graph has 64",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:      "legacy twohop node count and scheme parse",
			build:     func(v uint32) []byte { return assemble(v, []rawSec{legacy[0], legacy[1], legacyZeroDraws, shortRaw}) },
			strict:    "snapshot: 2-hop section covers 47 nodes, graph has 48",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:     "graph adjacency and twohop checksum",
			build:    func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, badGraph, mt, th, sc}), 3) },
			strict:   "snapshot: graph: self-loop at node 0",
			tolerant: "snapshot: graph: self-loop at node 0",
		},
		{
			name:     "twohop checksum before graph adjacency",
			build:    func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, th, badGraph, mt, sc}), 1) },
			strict:   "snapshot: section 1 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: graph: self-loop at node 0",
		},
		{
			name:     "duplicate twohop after a corrupt one",
			build:    func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, g, th, th, sc}), 2) },
			strict:   "snapshot: section 2 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: duplicate 2-hop section",
		},
		{
			name:     "malformed duplicate graph",
			build:    func(v uint32) []byte { return assemble(v, []rawSec{meta, g, badGraph, th, zeroDraws}) },
			strict:   "snapshot: duplicate graph section",
			tolerant: "snapshot: duplicate graph section",
		},
		{
			name:     "twohop checksum without a graph",
			build:    func(v uint32) []byte { return flipPayload(assemble(v, []rawSec{meta, th, sc}), 1) },
			strict:   "snapshot: section 1 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: no graph section",
		},
		{
			name:     "graph checksum before reserved table field",
			build:    func(v uint32) []byte { return flipPayload(patchEntry(assemble(v, secs), 4, 32, 7), 1) },
			strict:   "snapshot: section 1 (kind 2) checksum mismatch ({graph})",
			tolerant: "snapshot: section 1 (kind 2) checksum mismatch ({graph})",
		},
		{
			name:     "twohop checksum before reserved table field",
			build:    func(v uint32) []byte { return flipPayload(patchEntry(assemble(v, secs), 4, 32, 7), 3) },
			strict:   "snapshot: section 3 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: section 4 has non-zero reserved fields",
		},
		{
			name:     "reserved table field before twohop checksum",
			build:    func(v uint32) []byte { return flipPayload(patchEntry32(assemble(v, secs), 0, 4, 7), 3) },
			strict:   "snapshot: section 0 has non-zero reserved fields",
			tolerant: "snapshot: section 0 has non-zero reserved fields",
		},
		{
			name: "twohop checksum before non-canonical offset",
			build: func(v uint32) []byte {
				base := assemble(v, secs)
				off := binary.LittleEndian.Uint64(base[24+40*4+8:])
				return flipPayload(patchEntry(assemble(v, secs), 4, 8, off+8), 3)
			},
			strict:   "snapshot: section 3 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: section 4 payload at offset 4752, canonical layout wants 4744",
		},
		{
			name:     "twohop checksum before trailing bytes",
			build:    func(v uint32) []byte { return flipPayload(append(assemble(v, secs), 0, 0, 0, 0, 0, 0, 0, 0), 3) },
			strict:   "snapshot: section 3 (kind 6) checksum mismatch ({twohop})",
			tolerant: "snapshot: 8 trailing bytes after the last section",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range versions {
				t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
					b := tc.build(v)
					strict, tolerant := flipped[v].Replace(tc.strict), flipped[v].Replace(tc.tolerant)
					if _, err := snapshot.ReadBytes(b); err == nil {
						t.Fatal("strict reader accepted a damaged file")
					} else if err.Error() != strict {
						t.Errorf("strict error:\n got:  %q\n want: %q", err, strict)
					}
					s, err := snapshot.ReadBytesTolerant(b)
					switch {
					case err != nil && err.Error() != tolerant:
						t.Errorf("tolerant error:\n got:  %q\n want: %q", err, tolerant)
					case err == nil && tolerant != "":
						t.Errorf("tolerant reader loaded the file, want error %q", tolerant)
					case err == nil && !reflect.DeepEqual(s.Quarantined, tc.quarantin):
						t.Errorf("Quarantined = %#v, want %#v", s.Quarantined, tc.quarantin)
					}
				})
			}
		})
	}
}

// TestReadBigSectionChecksumOutranksParse covers the big graph and 2-hop
// sections, whose parses split over node ranges: a payload that is both
// damaged and unparseable must still fail with its checksum error
// (strict) or be quarantined by it (tolerant), and once resealed it must
// fail with its parse error.
func TestReadBigSectionChecksumOutranksParse(t *testing.T) {
	_, base := buildCase(t, "ratree", 4096, dist.PolicyTwoHop, "uniform")
	secs := parseSecs(t, base)
	if len(secs) != 4 || secs[1].kind != 2 || secs[2].kind != 6 {
		t.Fatalf("base sections %v, want meta, graph, packed 2-hop, scheme", secs)
	}
	overshoot := overshootGraphPayload(t, secs[1].payload)
	hugeTwoHop := clone(secs[2].payload)
	binary.LittleEndian.PutUint64(hugeTwoHop, snapshot.MaxNodes+1)
	// unsealed swaps one payload in after the checksums were recorded.
	unsealed := func(i int, payload []byte) func(v uint32) []byte {
		return func(v uint32) []byte {
			b := assemble(v, secs)
			copy(b[binary.LittleEndian.Uint64(b[24+40*i+8:]):], payload)
			return b
		}
	}
	resealed := func(i int, payload []byte) func(v uint32) []byte {
		return func(v uint32) []byte {
			s := slices.Clone(secs)
			s[i].payload = payload
			return assemble(v, s)
		}
	}
	cases := []struct {
		name, strict string
		build        func(v uint32) []byte
		tolerant     string   // the tolerant reader's error, "" if it loads
		quarantin    []string // what a tolerant load quarantines
	}{
		{name: "graph", build: unsealed(1, overshoot),
			strict: "snapshot: section 1 (kind 2) checksum mismatch", tolerant: "snapshot: section 1 (kind 2) checksum mismatch"},
		{name: "twohop", build: unsealed(2, hugeTwoHop),
			strict: "snapshot: section 2 (kind 6) checksum mismatch", quarantin: []string{"twohop"}},
		{name: "resealed graph", build: resealed(1, overshoot),
			strict: "snapshot: graph: offsets decrease at node 1", tolerant: "snapshot: graph: offsets decrease at node 1"},
		{name: "resealed twohop", build: resealed(2, hugeTwoHop),
			strict: "snapshot: 2-hop node count 268435457 exceeds cap 268435456", quarantin: []string{"twohop"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range versions {
				t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
					b := tc.build(v)
					if _, err := snapshot.ReadBytes(b); err == nil || !strings.HasPrefix(err.Error(), tc.strict) {
						t.Errorf("strict error %v, want prefix %q", err, tc.strict)
					}
					s, err := snapshot.ReadBytesTolerant(b)
					switch {
					case tc.tolerant != "":
						if err == nil || !strings.HasPrefix(err.Error(), tc.tolerant) {
							t.Errorf("tolerant error %v, want prefix %q", err, tc.tolerant)
						}
					case err != nil:
						t.Errorf("tolerant reader failed: %v", err)
					case !reflect.DeepEqual(s.Quarantined, tc.quarantin) || s.TwoHop != nil:
						t.Errorf("Quarantined = %#v (2-hop kept: %v), want %#v", s.Quarantined, s.TwoHop != nil, tc.quarantin)
					}
				})
			}
		})
	}
}
