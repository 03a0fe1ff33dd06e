package snapshot_test

// Packed 2-hop snapshot section (kind 6): round-trip fidelity, write
// determinism, size and tolerant-read quarantine.  Loading legacy
// raw-section (kind 4) files is covered in legacy_test.go.

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

func TestRoundTripPackedTwoHop(t *testing.T) {
	fresh, b := buildCase(t, "gnp", 300, dist.PolicyTwoHop, "ball", "uniform")
	if fresh.TwoHop == nil {
		t.Fatal("twohop policy did not produce an oracle")
	}
	loaded, err := snapshot.ReadBytes(b)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if loaded.TwoHop == nil {
		t.Fatal("oracle did not survive the round trip")
	}

	// Write determinism and the write → read → write fixpoint.
	b2, err := fresh.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("packed serialisation is not deterministic")
	}
	b3, err := loaded.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b3) {
		t.Fatal("write → read → write is not a fixpoint for the packed section")
	}

	// Every distance byte-identical to the fresh build, and exact.
	comparePairs(t, loaded.Graph, fresh.TwoHop, loaded.TwoHop)
	compareRoutes(t, fresh, loaded)

	// The packed section is smaller than the legacy raw section the same
	// labels would need: hub order, CSR index, and a hub rank and a
	// distance per entry.
	n := int64(loaded.Graph.N())
	entries := int64(math.Round(loaded.TwoHop.AvgLabel() * float64(n)))
	raw := 4*n + 8*(n+1) + 8*entries
	secs := parseSecs(t, b)
	i := slices.IndexFunc(secs, func(s rawSec) bool { return s.kind == 6 })
	if i < 0 {
		t.Fatal("no packed 2-hop section written")
	}
	if size := int64(len(secs[i].payload)); size >= raw {
		t.Fatalf("packed 2-hop section (%d B) not smaller than the raw one (%d B)", size, raw)
	}
}

func TestTolerantReadQuarantinesPackedTwoHop(t *testing.T) {
	fresh, b := buildCase(t, "gnp", 300, dist.PolicyTwoHop, "ball")
	eachVersion(t, b, func(t *testing.T, b []byte) {
		bad := corrupted(t, b, "twohop")

		if _, err := snapshot.ReadBytes(bad); err == nil {
			t.Fatal("strict reader accepted a corrupt packed 2-hop section")
		}
		s, err := snapshot.ReadBytesTolerant(bad)
		if err != nil {
			t.Fatalf("tolerant read: %v", err)
		}
		if !reflect.DeepEqual(s.Quarantined, []string{"twohop"}) {
			t.Fatalf("Quarantined = %v, want [twohop]", s.Quarantined)
		}
		if s.TwoHop != nil {
			t.Fatal("quarantined packed section still decoded")
		}
		if s.Graph == nil || s.Graph.N() != fresh.Graph.N() {
			t.Fatal("graph damaged by an unrelated quarantine")
		}
		if !reflect.DeepEqual(s.Schemes, fresh.Schemes) {
			t.Fatal("schemes damaged by an unrelated quarantine")
		}
	})
}
