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
	"reflect"
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
		build     func() []byte
		strict    string   // the strict reader's error
		tolerant  string   // the tolerant reader's error, "" if it loads
		quarantin []string // what a tolerant load quarantines
	}{
		{
			name:     "graph and twohop checksums",
			build:    func() []byte { return flipPayload(flipPayload(assemble(secs), 1), 3) },
			strict:   "snapshot: section 1 (kind 2) checksum mismatch (file b6cbf2fd94eeae73, computed 3db825ea96eb931d)",
			tolerant: "snapshot: section 1 (kind 2) checksum mismatch (file b6cbf2fd94eeae73, computed 3db825ea96eb931d)",
		},
		{
			name:     "twohop checksum before graph checksum",
			build:    func() []byte { return flipPayload(flipPayload(assemble([]rawSec{meta, th, g, mt, sc}), 1), 2) },
			strict:   "snapshot: section 1 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: section 2 (kind 2) checksum mismatch (file b6cbf2fd94eeae73, computed 3db825ea96eb931d)",
		},
		{
			name:      "twohop checksum and scheme parse",
			build:     func() []byte { return flipPayload(assemble([]rawSec{meta, g, mt, th, zeroDraws, sc}), 3) },
			strict:    "snapshot: section 3 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:      "scheme parse before twohop checksum",
			build:     func() []byte { return flipPayload(assemble([]rawSec{meta, g, sc, zeroDraws, mt, th}), 5) },
			strict:    "snapshot: section 5 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			quarantin: []string{"twohop", "scheme[1]"},
		},
		{
			name:      "metric parse and twohop checksum",
			build:     func() []byte { return flipPayload(assemble([]rawSec{meta, g, badMetric, th, sc}), 3) },
			strict:    "snapshot: metric name length 4097 exceeds cap 4096",
			quarantin: []string{"metric", "twohop"},
		},
		{
			name:      "twohop checksum before metric parse",
			build:     func() []byte { return flipPayload(assemble([]rawSec{meta, g, th, badMetric, sc}), 2) },
			strict:    "snapshot: section 2 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			quarantin: []string{"twohop", "metric"},
		},
		{
			name:      "metric resolve and twohop checksum",
			build:     func() []byte { return flipPayload(assemble([]rawSec{meta, g, alienMetric, th, sc}), 3) },
			strict:    "snapshot: section 3 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			quarantin: []string{"twohop", "metric"},
		},
		{
			name:      "twohop node count and scheme parse",
			build:     func() []byte { return assemble([]rawSec{meta, g, zeroDraws, shortTwoHop, sc}) },
			strict:    "snapshot: 2-hop section covers 63 nodes, graph has 64",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:      "legacy twohop node count and scheme parse",
			build:     func() []byte { return assemble([]rawSec{legacy[0], legacy[1], legacyZeroDraws, shortRaw}) },
			strict:    "snapshot: 2-hop section covers 47 nodes, graph has 48",
			quarantin: []string{"twohop", "scheme[0]"},
		},
		{
			name:     "graph adjacency and twohop checksum",
			build:    func() []byte { return flipPayload(assemble([]rawSec{meta, badGraph, mt, th, sc}), 3) },
			strict:   "snapshot: graph: self-loop at node 0",
			tolerant: "snapshot: graph: self-loop at node 0",
		},
		{
			name:     "twohop checksum before graph adjacency",
			build:    func() []byte { return flipPayload(assemble([]rawSec{meta, th, badGraph, mt, sc}), 1) },
			strict:   "snapshot: section 1 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: graph: self-loop at node 0",
		},
		{
			name:     "duplicate twohop after a corrupt one",
			build:    func() []byte { return flipPayload(assemble([]rawSec{meta, g, th, th, sc}), 2) },
			strict:   "snapshot: section 2 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: duplicate 2-hop section",
		},
		{
			name:     "malformed duplicate graph",
			build:    func() []byte { return assemble([]rawSec{meta, g, badGraph, th, zeroDraws}) },
			strict:   "snapshot: duplicate graph section",
			tolerant: "snapshot: duplicate graph section",
		},
		{
			name:     "twohop checksum without a graph",
			build:    func() []byte { return flipPayload(assemble([]rawSec{meta, th, sc}), 1) },
			strict:   "snapshot: section 1 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: no graph section",
		},
		{
			name:     "graph checksum before reserved table field",
			build:    func() []byte { return flipPayload(patchEntry(base, 4, 32, 7), 1) },
			strict:   "snapshot: section 1 (kind 2) checksum mismatch (file b6cbf2fd94eeae73, computed 3db825ea96eb931d)",
			tolerant: "snapshot: section 1 (kind 2) checksum mismatch (file b6cbf2fd94eeae73, computed 3db825ea96eb931d)",
		},
		{
			name:     "twohop checksum before reserved table field",
			build:    func() []byte { return flipPayload(patchEntry(base, 4, 32, 7), 3) },
			strict:   "snapshot: section 3 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: section 4 has non-zero reserved fields",
		},
		{
			name:     "reserved table field before twohop checksum",
			build:    func() []byte { return flipPayload(patchEntry32(base, 0, 4, 7), 3) },
			strict:   "snapshot: section 0 has non-zero reserved fields",
			tolerant: "snapshot: section 0 has non-zero reserved fields",
		},
		{
			name: "twohop checksum before non-canonical offset",
			build: func() []byte {
				off := binary.LittleEndian.Uint64(base[24+40*4+8:])
				return flipPayload(patchEntry(base, 4, 8, off+8), 3)
			},
			strict:   "snapshot: section 3 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: section 4 payload at offset 4752, canonical layout wants 4744",
		},
		{
			name:     "twohop checksum before trailing bytes",
			build:    func() []byte { return flipPayload(append(clone(base), 0, 0, 0, 0, 0, 0, 0, 0), 3) },
			strict:   "snapshot: section 3 (kind 6) checksum mismatch (file 72c625a7210ec625, computed ce511e502e39ed84)",
			tolerant: "snapshot: 8 trailing bytes after the last section",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build()
			if _, err := snapshot.ReadBytes(b); err == nil {
				t.Fatal("strict reader accepted a damaged file")
			} else if err.Error() != tc.strict {
				t.Errorf("strict error:\n got:  %q\n want: %q", err, tc.strict)
			}
			s, err := snapshot.ReadBytesTolerant(b)
			switch {
			case err != nil && err.Error() != tc.tolerant:
				t.Errorf("tolerant error:\n got:  %q\n want: %q", err, tc.tolerant)
			case err == nil && tc.tolerant != "":
				t.Errorf("tolerant reader loaded the file, want error %q", tc.tolerant)
			case err == nil && !reflect.DeepEqual(s.Quarantined, tc.quarantin):
				t.Errorf("Quarantined = %#v, want %#v", s.Quarantined, tc.quarantin)
			}
		})
	}
}
