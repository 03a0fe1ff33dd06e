package snapshot_test

// FuzzSnapshotRead follows the graph.Read fuzzing precedent: the reader
// must never panic, hang, or allocate unboundedly on arbitrary bytes, and
// anything it accepts must be semantically stable — re-serialising an
// accepted snapshot yields canonical bytes that read back to the same
// artefacts (a fixpoint).  The committed corpus under
// testdata/fuzz/FuzzSnapshotRead seeds the interesting regions: a fully
// valid file, truncations, and header-level corruptions; the legacy
// raw-section fixture keeps the raw 2-hop decoder under the fuzzer.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

func FuzzSnapshotRead(f *testing.F) {
	snap, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: "ratree", N: 24, Seed: 5,
		Schemes: []string{"uniform"}, Draws: 1,
		Oracle: dist.PolicyTwoHop,
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := snap.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(legacyRawBytes(f))
	f.Add(valid[:16])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshot.MagicV1))
	f.Add([]byte{})
	hostile := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hostile[len(hostile)-8:], 1<<60)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := snapshot.ReadBytes(b)
		if err != nil {
			return
		}
		checkRoundTrip(t, s)
	})
}

// checkRoundTrip requires an accepted snapshot to survive a
// canonicalising round trip.
func checkRoundTrip(t *testing.T, s *snapshot.Snapshot) {
	t.Helper()
	out, err := s.Bytes()
	if err != nil {
		t.Fatalf("accepted snapshot failed to re-serialise: %v", err)
	}
	s2, err := snapshot.ReadBytes(out)
	if err != nil {
		t.Fatalf("re-serialised snapshot rejected: %v", err)
	}
	out2, err := s2.Bytes()
	if err != nil {
		t.Fatalf("second re-serialisation failed: %v", err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatalf("write(read(write)) is not a fixpoint")
	}
	if s2.Graph.N() != s.Graph.N() || s2.Graph.M() != s.Graph.M() ||
		s2.Graph.Name() != s.Graph.Name() ||
		(s2.TwoHop != nil) != (s.TwoHop != nil) ||
		s2.MetricName != s.MetricName || len(s2.Schemes) != len(s.Schemes) {
		t.Fatalf("round trip changed the snapshot's shape")
	}
}

// FuzzSnapshotSections reaches the section decoders past the checksums:
// it replaces one section payload of a valid file with the fuzzer's bytes
// and reseals that section's checksum and the table's, so every mutation
// is parsed, so the decoders must be safe on any bytes that carry a
// valid checksum.  The strict and tolerant readers must never panic, and
// whatever the strict one accepts must round-trip.  The low six bits of
// which pick the section; bit 6 seals the file as format version 1
// (CRC-64) instead of 2 (CRC-32C), and bit 7 picks the legacy raw-2-hop
// fixture as the base instead of a current file (meta, graph, metric,
// packed 2-hop, scheme).  The committed corpus under
// testdata/fuzz/FuzzSnapshotSections holds a graph payload whose offset
// index overshoots the adjacency and then decreases, in a version 2 file.
func FuzzSnapshotSections(f *testing.F) {
	snap, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: "torus", N: 25, Seed: 5,
		Schemes: []string{"uniform"}, Draws: 1,
		Oracle: dist.PolicyTwoHop,
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := snap.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	bases := [2][]rawSec{parseSecs(f, valid), parseSecs(f, legacyRawBytes(f))}
	for b, secs := range bases {
		for i, sec := range secs {
			f.Add(uint8(b<<7|i), sec.payload)
		}
	}
	f.Add(uint8(1), overshootGraphPayload(f, bases[0][1].payload))
	for b, secs := range bases {
		for i, sec := range secs {
			f.Add(uint8(b<<7|1<<6|i), sec.payload)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		secs := slices.Clone(bases[which>>7])
		secs[int(which&0x3f)%len(secs)].payload = payload
		b := assemble(uint32(2-which>>6&1), secs)
		snapshot.ReadBytesTolerant(b) // only required not to panic
		s, err := snapshot.ReadBytes(b)
		if err != nil {
			return
		}
		checkRoundTrip(t, s)
	})
}
