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
		// Whatever was accepted must survive a canonicalising round trip.
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
	})
}
