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
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/dist/disttest"
	"navaug/internal/serve"
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
	if !bytes.Equal(reseal(t, 1, b), b) {
		t.Fatal("the fixture, a version 1 file, differs from the test sealer's version 1 file")
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

	// The raw section loads the same sealed as version 2, and damage to it
	// is named like damage to a packed one.
	eachVersion(t, b, func(t *testing.T, b []byte) {
		r, err := snapshot.ReadBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		ro, rp, rb := r.TwoHop.RawPacked()
		if !slices.Equal(fo, ro) || !slices.Equal(fp, rp) || !bytes.Equal(fb, rb) {
			t.Fatal("resealed legacy labels differ from a fresh build")
		}
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
	})
}

// TestVersion1FilesServeIdentically reseals a snapshot written today as a
// version 1 (CRC-64) file: the writer seals exactly as the test sealer
// does, the version 1 file loads to the same artefacts, rewrites to the
// same version 2 file, and a server over it answers /v1/dist and
// /v1/route byte for byte as a server over the version 2 file does.
func TestVersion1FilesServeIdentically(t *testing.T) {
	fresh, b := buildCase(t, "ratree", 512, dist.PolicyTwoHop, "ball", "uniform")
	if !bytes.Equal(reseal(t, 2, b), b) {
		t.Fatal("the writer's version 2 file differs from the test sealer's")
	}
	v1 := reseal(t, 1, b)
	if bytes.Equal(v1[8:24], b[8:24]) {
		t.Fatal("version 1 reseal left the header unchanged")
	}
	old, err := snapshot.ReadBytes(v1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snapshot.ReadBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if old.Meta != cur.Meta || !reflect.DeepEqual(old.Schemes, cur.Schemes) || old.MetricName != cur.MetricName {
		t.Fatal("version 1 file loaded to different meta, schemes or metric")
	}
	oo, ca := old.Graph.RawCSR()
	co, cb := cur.Graph.RawCSR()
	if old.Graph.Name() != cur.Graph.Name() || !slices.Equal(oo, co) || !slices.Equal(ca, cb) {
		t.Fatal("version 1 file loaded to a different graph")
	}
	ho, hp, hb := old.TwoHop.RawPacked()
	fo, fp, fb := fresh.TwoHop.RawPacked()
	if !slices.Equal(ho, fo) || !slices.Equal(hp, fp) || !bytes.Equal(hb, fb) {
		t.Fatal("version 1 file loaded to different 2-hop labels")
	}
	if rewritten, err := old.Bytes(); err != nil || !bytes.Equal(rewritten, b) {
		t.Fatalf("re-writing the version 1 file did not give the version 2 file (err %v)", err)
	}

	answers := func(s *snapshot.Snapshot) []string {
		srv, err := serve.New(s, serve.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out []string
		for _, url := range []string{
			"/v1/dist?u=0&v=511", "/v1/dist?u=17&v=300",
			"/v1/route?s=0&t=511&scheme=ball&trace=1", "/v1/route?s=5&t=400&scheme=uniform&draw=1&trace=1",
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != 200 {
				t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
			}
			out = append(out, rec.Body.String())
		}
		for _, post := range [][2]string{
			{"/v1/dist", `{"pairs":[[0,1],[2,300],[511,7],[64,64]]}`},
			{"/v1/route", `{"pairs":[[0,511],[9,200]],"scheme":"ball","trace":true}`},
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", post[0], strings.NewReader(post[1])))
			if rec.Code != 200 {
				t.Fatalf("POST %s: %d %s", post[0], rec.Code, rec.Body)
			}
			out = append(out, rec.Body.String())
		}
		return out
	}
	if got, want := answers(old), answers(cur); !slices.Equal(got, want) {
		t.Fatalf("version 1 answers differ:\n got:  %q\n want: %q", got, want)
	}
}

// TestLegacyAndPackedTwoHopAreDuplicates: a file may hold one 2-hop
// section, whatever its layout.
func TestLegacyAndPackedTwoHopAreDuplicates(t *testing.T) {
	legacy := parseSecs(t, legacyRawBytes(t))
	_, b := smallSnapshot(t)
	packed := parseSecs(t, b)
	for _, v := range versions {
		mustFail(t, assemble(v, []rawSec{legacy[0], legacy[1], legacy[2], packed[2]}), "duplicate 2-hop", "raw then packed")
		mustFail(t, assemble(v, []rawSec{legacy[0], legacy[1], packed[2], legacy[2]}), "duplicate 2-hop", "packed then raw")
	}
}
