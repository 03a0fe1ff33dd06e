package snapshot_test

// Tolerant-read quarantine: a snapshot with a damaged *optional* section
// (metric, twohop, scheme) still loads under ReadBytesTolerant — minus
// exactly the damaged artefact, named in Snapshot.Quarantined — while the
// strict reader keeps rejecting the same bytes.  Damage to the mandatory
// meta/graph sections fails both readers.  This is the load-path half of
// the serving stack's degradation ladder.  Every check runs on files
// sealed under both format versions.

import (
	"reflect"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

// corrupted returns a copy of b with the named section's payload damaged.
func corrupted(t *testing.T, b []byte, kind string) []byte {
	t.Helper()
	c := append([]byte(nil), b...)
	if err := snapshot.CorruptSection(c, kind); err != nil {
		t.Fatalf("CorruptSection(%s): %v", kind, err)
	}
	return c
}

func TestTolerantReadQuarantinesTwoHop(t *testing.T) {
	fresh, b := buildCase(t, "ratree", 256, dist.PolicyTwoHop, "ball", "uniform")
	eachVersion(t, b, func(t *testing.T, b []byte) {
		bad := corrupted(t, b, "twohop")

		if _, err := snapshot.ReadBytes(bad); err == nil {
			t.Fatal("strict reader accepted a corrupt twohop section")
		}
		s, err := snapshot.ReadBytesTolerant(bad)
		if err != nil {
			t.Fatalf("tolerant read: %v", err)
		}
		if !reflect.DeepEqual(s.Quarantined, []string{"twohop"}) {
			t.Fatalf("Quarantined = %v, want [twohop]", s.Quarantined)
		}
		if s.TwoHop != nil {
			t.Fatal("quarantined twohop section still decoded")
		}
		if s.Source() != nil {
			t.Fatal("Source() non-nil with the only oracle quarantined")
		}
		// Everything else must survive untouched.
		if s.Graph == nil || s.Graph.N() != fresh.Graph.N() || s.Graph.M() != fresh.Graph.M() {
			t.Fatal("graph damaged by an unrelated quarantine")
		}
		if !reflect.DeepEqual(s.Schemes, fresh.Schemes) {
			t.Fatal("schemes damaged by an unrelated quarantine")
		}
	})
}

func TestTolerantReadQuarantinesScheme(t *testing.T) {
	fresh, b := buildCase(t, "ratree", 256, dist.PolicyTwoHop, "ball", "uniform")
	eachVersion(t, b, func(t *testing.T, b []byte) {
		bad := corrupted(t, b, "scheme") // hits the first scheme section

		if _, err := snapshot.ReadBytes(bad); err == nil {
			t.Fatal("strict reader accepted a corrupt scheme section")
		}
		s, err := snapshot.ReadBytesTolerant(bad)
		if err != nil {
			t.Fatalf("tolerant read: %v", err)
		}
		if !reflect.DeepEqual(s.Quarantined, []string{"scheme[0]"}) {
			t.Fatalf("Quarantined = %v, want [scheme[0]]", s.Quarantined)
		}
		// The second scheme survives; the oracle survives.
		if len(s.Schemes) != 1 || !reflect.DeepEqual(s.Schemes[0], fresh.Schemes[1]) {
			t.Fatalf("surviving schemes wrong: got %d tables", len(s.Schemes))
		}
		if s.TwoHop == nil {
			t.Fatal("twohop lost to an unrelated quarantine")
		}
	})
}

func TestTolerantReadQuarantinesMetric(t *testing.T) {
	_, b := buildCase(t, "torus", 256, dist.PolicyAuto, "ball")
	eachVersion(t, b, func(t *testing.T, b []byte) {
		bad := corrupted(t, b, "metric")

		if _, err := snapshot.ReadBytes(bad); err == nil {
			t.Fatal("strict reader accepted a corrupt metric section")
		}
		s, err := snapshot.ReadBytesTolerant(bad)
		if err != nil {
			t.Fatalf("tolerant read: %v", err)
		}
		if !reflect.DeepEqual(s.Quarantined, []string{"metric"}) {
			t.Fatalf("Quarantined = %v, want [metric]", s.Quarantined)
		}
		if s.Metric != nil || s.MetricName != "" {
			t.Fatal("quarantined metric still resolved")
		}
	})
}

func TestTolerantReadStillRejectsMandatoryDamage(t *testing.T) {
	_, b := buildCase(t, "ratree", 64, dist.PolicyTwoHop)
	eachVersion(t, b, func(t *testing.T, b []byte) {
		for _, kind := range []string{"meta", "graph"} {
			bad := corrupted(t, b, kind)
			if _, err := snapshot.ReadBytesTolerant(bad); err == nil {
				t.Errorf("tolerant reader accepted a corrupt %s section", kind)
			}
		}
		// Structural damage (the section table itself) also stays fatal.
		table := append([]byte(nil), b...)
		table[26] ^= 0xFF
		if _, err := snapshot.ReadBytesTolerant(table); err == nil {
			t.Error("tolerant reader accepted a corrupt section table")
		}
	})
}

func TestTolerantReadCleanFileHasNoQuarantine(t *testing.T) {
	fresh, b := buildCase(t, "ratree", 256, dist.PolicyTwoHop, "ball")
	eachVersion(t, b, func(t *testing.T, b []byte) {
		s, err := snapshot.ReadBytesTolerant(b)
		if err != nil {
			t.Fatalf("tolerant read of clean bytes: %v", err)
		}
		if s.Quarantined != nil {
			t.Fatalf("clean file quarantined %v", s.Quarantined)
		}
		if s.TwoHop == nil || len(s.Schemes) != len(fresh.Schemes) {
			t.Fatal("tolerant read of a clean file dropped sections")
		}
	})
}
