package snapshot_test

// Snapshots written before the 2-hop labels had a single packed layout
// carry a raw (kind 4) 2-hop section: a CSR index over parallel hub-rank
// and distance arrays.  The reader still accepts it and packs the labels
// at load.  testdata/raw-twohop.navsnap is such a file, with
// smallSnapshot's contents:
//
//	navsim snapshot -family ratree -n 48 -seed 3 -scheme ball -draws 1 -oracle twohop
//
// as written by the last version that wrote raw sections.

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/dist/disttest"
	"navaug/internal/snapshot"
)

const legacyRawFixture = "testdata/raw-twohop.navsnap"

// legacyRawBytes reads the fixture.
func legacyRawBytes(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(legacyRawFixture)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLegacyRawTwoHopSection(t *testing.T) {
	b := legacyRawBytes(t)
	kinds := []uint32{}
	for _, sec := range parseSecs(t, b) {
		kinds = append(kinds, sec.kind)
	}
	if !slices.Contains(kinds, 4) || slices.Contains(kinds, 6) {
		t.Fatalf("fixture section kinds %v, want a raw (4) 2-hop section", kinds)
	}

	s, err := snapshot.ReadFile(legacyRawFixture)
	if err != nil {
		t.Fatal(err)
	}
	if s.TwoHop == nil {
		t.Fatal("legacy 2-hop section not loaded")
	}
	// The converted labels are byte for byte what a fresh build packs.
	fresh := dist.NewTwoHop(s.Graph)
	fo, fp, fb := fresh.RawPacked()
	lo, lp, lb := s.TwoHop.RawPacked()
	if !slices.Equal(fo, lo) || !slices.Equal(fp, lp) || !bytes.Equal(fb, lb) {
		t.Fatal("legacy labels differ from a fresh build")
	}
	disttest.Exact(t, s.Graph, s.TwoHop)

	// Re-writing the loaded snapshot gives exactly today's file for the
	// same build.
	_, want := smallSnapshot(t)
	got, err := s.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-written legacy snapshot differs from a fresh one")
	}

	// Damage to the raw section is named like damage to a packed one.
	bad := corrupted(t, b, "twohop")
	if _, err := snapshot.ReadBytes(bad); err == nil {
		t.Fatal("strict reader accepted a corrupt raw 2-hop section")
	}
	q, err := snapshot.ReadBytesTolerant(bad)
	if err != nil {
		t.Fatalf("tolerant read: %v", err)
	}
	if !reflect.DeepEqual(q.Quarantined, []string{"twohop"}) || q.TwoHop != nil {
		t.Fatalf("Quarantined = %v (oracle kept: %v), want [twohop]", q.Quarantined, q.TwoHop != nil)
	}
}

// TestLegacyAndPackedTwoHopAreDuplicates: a file may hold one 2-hop
// section, whatever its layout.
func TestLegacyAndPackedTwoHopAreDuplicates(t *testing.T) {
	legacy := parseSecs(t, legacyRawBytes(t))
	_, b := smallSnapshot(t)
	packed := parseSecs(t, b)
	mustFail(t, assemble([]rawSec{legacy[0], legacy[1], legacy[2], packed[2]}), "duplicate 2-hop", "raw then packed")
	mustFail(t, assemble([]rawSec{legacy[0], legacy[1], packed[2], legacy[2]}), "duplicate 2-hop", "packed then raw")
}
