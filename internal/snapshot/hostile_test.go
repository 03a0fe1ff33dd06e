package snapshot_test

// Hostile-input hardening for the snapshot reader: truncations, corrupted
// headers and tables, checksum mismatches, overflowing declared lengths,
// structural inconsistencies — every one must come back as an error, never
// a panic or an unbounded allocation.  The bit-flip sweep pins the
// strongest property the format is designed for: flipping ANY single bit
// of a well-formed file makes the reader reject it (magic/version/count
// checks cover the header, the checksum of the file's version covers the
// table and every payload, and the canonical-layout rules cover all
// padding bytes).  Each check runs on files sealed under both format
// versions: 1 (CRC-64/ECMA) and 2 (CRC-32C, what writers emit).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"strings"
	"testing"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

var (
	ecma       = crc64.MakeTable(crc64.ECMA)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// versions are the format versions the reader accepts.
var versions = []uint32{1, 2}

// sum is the checksum a version-v file records: CRC-64/ECMA for version
// 1, CRC-32C zero-extended to 64 bits for version 2.
func sum(v uint32, b []byte) uint64 {
	if v == 1 {
		return crc64.Checksum(b, ecma)
	}
	return uint64(crc32.Checksum(b, castagnoli))
}

// versionOf reads the format version from a file's header.
func versionOf(b []byte) uint32 { return binary.LittleEndian.Uint32(b[8:12]) }

// reseal returns b's sections sealed as a version-v file.
func reseal(t testing.TB, v uint32, b []byte) []byte {
	t.Helper()
	return assemble(v, parseSecs(t, b))
}

// eachVersion runs f, as subtests v1 and v2, on b resealed under every
// format version.
func eachVersion(t *testing.T, b []byte, f func(t *testing.T, b []byte)) {
	t.Helper()
	for _, v := range versions {
		sealed := reseal(t, v, b)
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { f(t, sealed) })
	}
}

// smallSnapshot builds one well-formed snapshot (graph + meta + 2-hop +
// one frozen scheme) reused as the mutation base.
func smallSnapshot(t testing.TB) (*snapshot.Snapshot, []byte) {
	t.Helper()
	snap, _, err := core.BuildSnapshot(core.SnapshotOptions{
		Family: "ratree", N: 48, Seed: 3,
		Schemes: []string{"ball"}, Draws: 1,
		Oracle: dist.PolicyTwoHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return snap, b
}

// mustFail asserts ReadBytes rejects the input with an error containing
// want (empty want = any error).
func mustFail(t *testing.T, b []byte, want, context string) {
	t.Helper()
	s, err := snapshot.ReadBytes(b)
	if err == nil {
		t.Fatalf("%s: ReadBytes accepted hostile input (got snapshot with n=%d)", context, s.Graph.N())
	}
	if want != "" && !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %q does not mention %q", context, err, want)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestReadRejectsTruncation(t *testing.T) {
	_, b := smallSnapshot(t)
	eachVersion(t, b, func(t *testing.T, b []byte) {
		for _, cut := range []int{0, 1, 7, 8, 15, 23, 24, 63, len(b) / 3, len(b) / 2, len(b) - 8, len(b) - 1} {
			mustFail(t, b[:cut], "", "truncated")
		}
	})
}

func TestReadRejectsHeaderCorruption(t *testing.T) {
	_, b := smallSnapshot(t)
	eachVersion(t, b, checkHeaderCorruption)
}

func checkHeaderCorruption(t *testing.T, b []byte) {
	bad := clone(b)
	bad[0] = 'X'
	mustFail(t, bad, "bad magic", "magic")

	bad = clone(b)
	binary.LittleEndian.PutUint32(bad[8:12], 3)
	mustFail(t, bad, "unsupported format version", "version")

	// The other version's checksum does not match this file's table.
	bad = clone(b)
	binary.LittleEndian.PutUint32(bad[8:12], 3-versionOf(b))
	mustFail(t, bad, "table checksum", "other version")

	bad = clone(b)
	binary.LittleEndian.PutUint32(bad[12:16], 0)
	mustFail(t, bad, "section count", "zero sections")

	bad = clone(b)
	binary.LittleEndian.PutUint32(bad[12:16], snapshot.MaxSections+1)
	mustFail(t, bad, "section count", "over-cap sections")

	bad = clone(b)
	bad[16] ^= 0x01
	mustFail(t, bad, "table checksum", "table CRC")
}

// patchEntry rewrites one u64 field of section entry i and refreshes the
// table checksum, so the mutation reaches the per-section validation layer;
// patchEntry32 does the same for the two u32 fields (kind, flags).
func patchEntry(b []byte, i, fieldOff int, v uint64) []byte {
	out := clone(b)
	binary.LittleEndian.PutUint64(out[24+40*i+fieldOff:], v)
	return fixTableCRC(out)
}

func patchEntry32(b []byte, i, fieldOff int, v uint32) []byte {
	out := clone(b)
	binary.LittleEndian.PutUint32(out[24+40*i+fieldOff:], v)
	return fixTableCRC(out)
}

func fixTableCRC(out []byte) []byte {
	count := binary.LittleEndian.Uint32(out[12:16])
	binary.LittleEndian.PutUint64(out[16:24], sum(versionOf(out), out[24:24+40*int(count)]))
	return out
}

func TestReadRejectsTableCorruption(t *testing.T) {
	_, b := smallSnapshot(t)
	eachVersion(t, b, checkTableCorruption)
}

func checkTableCorruption(t *testing.T, b []byte) {
	entry := func(i, off int) uint64 {
		return binary.LittleEndian.Uint64(b[24+40*i+off:])
	}

	mustFail(t, patchEntry32(b, 0, 4, 7), "reserved", "non-zero flags")
	mustFail(t, patchEntry(b, 0, 32, 7), "reserved", "non-zero reserved")
	mustFail(t, patchEntry(b, 1, 8, entry(1, 8)+8), "canonical layout", "non-canonical offset")
	mustFail(t, patchEntry(b, 1, 16, 1<<60), "overruns", "overflowing length")
	mustFail(t, patchEntry(b, 0, 16, entry(0, 16)+uint64(len(b))), "overruns", "length past EOF")
	mustFail(t, patchEntry(b, 2, 24, entry(2, 24)^1), "checksum mismatch", "payload CRC in table")
	mustFail(t, patchEntry32(b, 0, 0, 9), "unknown section kind", "unknown kind")
}

func TestReadRejectsPayloadCorruption(t *testing.T) {
	_, b := smallSnapshot(t)
	eachVersion(t, b, func(t *testing.T, b []byte) {
		count := int(binary.LittleEndian.Uint32(b[12:16]))
		firstPayload := int(binary.LittleEndian.Uint64(b[24+8:])) // section 0 offset
		if firstPayload < 24+40*count {
			t.Fatalf("unexpected layout: first payload at %d", firstPayload)
		}
		bad := clone(b)
		bad[firstPayload] ^= 0xff
		mustFail(t, bad, "checksum mismatch", "payload byte flip")
	})
}

// TestReadRejectsHighChecksumBits: a version 2 checksum is a CRC-32C
// zero-extended to its 8-byte field, so a set bit in the high half is a
// mismatch even when the low half is right.
func TestReadRejectsHighChecksumBits(t *testing.T) {
	_, b := smallSnapshot(t)
	if versionOf(b) != 2 {
		t.Fatalf("writer emits version %d, want 2", versionOf(b))
	}
	bad := clone(b)
	bad[16+4] ^= 0x01
	mustFail(t, bad, "table checksum", "table checksum high half")
	for i := range parseSecs(t, b) {
		field := binary.LittleEndian.Uint64(b[24+40*i+24:])
		if field>>32 != 0 {
			t.Fatalf("section %d checksum %016x is not zero-extended", i, field)
		}
		mustFail(t, patchEntry(b, i, 24, field|1<<63), "checksum mismatch", fmt.Sprintf("section %d checksum high half", i))
	}
}

func TestReadRejectsTrailingBytes(t *testing.T) {
	_, b := smallSnapshot(t)
	eachVersion(t, b, func(t *testing.T, b []byte) {
		mustFail(t, append(clone(b), 0, 0, 0, 0, 0, 0, 0, 0), "trailing", "appended zeros")
		mustFail(t, append(clone(b), 0xde, 0xad), "trailing", "appended garbage")
	})
}

// sweepBases are the well-formed files the bit-flip and structural sweeps
// mutate, each sealed under both format versions: smallSnapshot as
// written today (a packed 2-hop section) and the legacy fixture with the
// same contents in a raw 2-hop section.
func sweepBases(t *testing.T) map[string][]byte {
	t.Helper()
	_, b := smallSnapshot(t)
	bases := map[string][]byte{}
	for _, v := range versions {
		bases[fmt.Sprintf("packed v%d", v)] = reseal(t, v, b)
		bases[fmt.Sprintf("legacy raw v%d", v)] = reseal(t, v, legacyRawBytes(t))
	}
	return bases
}

// TestReadRejectsEveryBitFlip is the sweep: every single-bit corruption of
// a valid file must be rejected.
func TestReadRejectsEveryBitFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-flip sweep skipped in -short mode")
	}
	for name, b := range sweepBases(t) {
		bad := clone(b)
		for i := range bad {
			for bit := 0; bit < 8; bit++ {
				bad[i] ^= 1 << bit
				if _, err := snapshot.ReadBytes(bad); err == nil {
					t.Fatalf("%s: flipping bit %d of byte %d/%d went undetected", name, bit, i, len(bad))
				}
				bad[i] ^= 1 << bit
			}
		}
	}
}

// rawSec / parseSecs / assemble let the structural tests recompose a valid
// file's sections into hostile layouts with correct checksums, so the
// errors exercised are the structural ones, not the CRC layer.
type rawSec struct {
	kind    uint32
	payload []byte
}

func parseSecs(t testing.TB, b []byte) []rawSec {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(b[12:16]))
	out := make([]rawSec, count)
	for i := range out {
		e := b[24+40*i:]
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		out[i] = rawSec{
			kind:    binary.LittleEndian.Uint32(e[0:4]),
			payload: clone(b[off : off+length]),
		}
	}
	return out
}

func assemble(v uint32, secs []rawSec) []byte {
	align8 := func(v int) int { return (v + 7) &^ 7 }
	tableEnd := 24 + 40*len(secs)
	total := align8(tableEnd)
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = total
		total = align8(total + len(s.payload))
	}
	out := make([]byte, total)
	copy(out, snapshot.MagicV1)
	binary.LittleEndian.PutUint32(out[8:12], v)
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(secs)))
	for i, s := range secs {
		e := out[24+40*i:]
		binary.LittleEndian.PutUint32(e[0:4], s.kind)
		binary.LittleEndian.PutUint64(e[8:16], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.payload)))
		binary.LittleEndian.PutUint64(e[24:32], sum(v, s.payload))
		copy(out[offsets[i]:], s.payload)
	}
	binary.LittleEndian.PutUint64(out[16:24], sum(v, out[24:tableEnd]))
	return out
}

func TestReadRejectsStructuralAbuse(t *testing.T) {
	for name, b := range sweepBases(t) {
		checkStructuralAbuse(t, name, b)
	}
}

func checkStructuralAbuse(t *testing.T, name string, b []byte) {
	t.Helper()
	secs := parseSecs(t, b)
	v := versionOf(b)
	// The writer emits meta, graph, metric?, twohop?, schemes in order;
	// this base has meta=0, graph=1, twohop=2, scheme=3.
	if len(secs) != 4 {
		t.Fatalf("%s: base snapshot has %d sections, expected 4", name, len(secs))
	}
	meta, g, th, sch := secs[0], secs[1], secs[2], secs[3]

	mustFail(t, assemble(v, []rawSec{meta, th, sch}), "no graph section", name+": missing graph")
	mustFail(t, assemble(v, []rawSec{g, th, sch}), "no meta section", name+": missing meta")
	mustFail(t, assemble(v, []rawSec{meta, g, g, th}), "duplicate graph", name+": duplicate graph")
	mustFail(t, assemble(v, []rawSec{meta, meta, g}), "duplicate meta", name+": duplicate meta")
	mustFail(t, assemble(v, []rawSec{meta, g, th, th}), "duplicate 2-hop", name+": duplicate twohop")

	// Structurally valid sections whose declared counts lie.
	hugeN := clone(g.payload)
	binary.LittleEndian.PutUint64(hugeN, snapshot.MaxNodes+1)
	mustFail(t, assemble(v, []rawSec{meta, rawSec{2, hugeN}}), "exceeds cap", name+": node count over cap")

	shrunkN := clone(g.payload)
	binary.LittleEndian.PutUint64(shrunkN, 47) // n lies; offsets slab now misparses
	mustFail(t, assemble(v, []rawSec{meta, rawSec{2, shrunkN}}), "", name+": understated node count")

	// The second field is the entry count of a raw 2-hop section and the
	// blob length of a packed one.
	bigLabels := clone(th.payload)
	binary.LittleEndian.PutUint64(bigLabels[8:], 1<<40)
	mustFail(t, assemble(v, []rawSec{meta, g, rawSec{th.kind, bigLabels}}), "exceeds cap", name+": 2-hop size over cap")

	zeroDraws := clone(sch.payload)
	binary.LittleEndian.PutUint64(zeroDraws, 0)
	mustFail(t, assemble(v, []rawSec{meta, g, rawSec{5, zeroDraws}}), "", name+": zero draws")

	// A metric descriptor for a family with no registered metric.
	badMetric := []byte("bogus-metric-name")
	padded := make([]byte, 8+((len(badMetric)+7)&^7))
	binary.LittleEndian.PutUint64(padded, uint64(len(badMetric)))
	copy(padded[8:], badMetric)
	mustFail(t, assemble(v, []rawSec{meta, g, rawSec{3, padded}}), "does not match graph name", name+": alien metric name")
}

func TestReadRejectsSemanticLies(t *testing.T) {
	// Meta/graph cross-check: meta claims a different size.
	snap, _ := smallSnapshot(t)
	mustFail := func(t *testing.T, b []byte, want, context string) {
		t.Helper()
		for _, v := range versions {
			mustFail(t, reseal(t, v, b), want, fmt.Sprintf("%s (v%d)", context, v))
		}
	}
	snap.Meta.N++
	lied, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, lied, "meta says", "meta/graph n mismatch")
	snap.Meta.N--

	// Contact table entry out of range: the writer only length-checks
	// draws, so this round-trips to the reader's range check.
	snap.Schemes[0].Draws[0][0] = int32(snap.Graph.N())
	oob, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, oob, "out of range", "contact out of range")
	snap.Schemes[0].Draws[0][0] = 0

	// A metric name that matches neither the graph name nor the registry.
	snap.MetricName = snap.Graph.Name()
	unreg, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, unreg, "not in the gen registry", "unregistered metric")
	snap.MetricName = ""
}

// overshootGraphPayload returns a copy of a graph section payload whose
// offset index overshoots the adjacency at node 1 and so decreases after
// it: the index that once sent graph.FromCSR slicing out of bounds.
func overshootGraphPayload(t testing.TB, payload []byte) []byte {
	t.Helper()
	p := clone(payload)
	n := binary.LittleEndian.Uint64(p[0:])
	nameLen := binary.LittleEndian.Uint64(p[16:])
	offsets := 24 + (nameLen+7)&^7
	if n < 2 || uint64(len(p)) < offsets+8*(n+1) {
		t.Fatalf("graph payload too small to hold node 1's offset")
	}
	m := binary.LittleEndian.Uint64(p[8:])
	binary.LittleEndian.PutUint64(p[offsets+8:], 2*m+5)
	return p
}

// TestReadRejectsOvershootingOffsets reseals a graph section whose offset
// index overshoots the adjacency: both readers must return the index
// error (the graph is mandatory, so the tolerant one cannot quarantine
// it), not panic on a section goroutine.
func TestReadRejectsOvershootingOffsets(t *testing.T) {
	for name, b := range sweepBases(t) {
		secs := parseSecs(t, b)
		secs[1].payload = overshootGraphPayload(t, secs[1].payload)
		bad := assemble(versionOf(b), secs)
		want := "snapshot: graph: offsets decrease at node 1"
		mustFail(t, bad, want, name)
		if _, err := snapshot.ReadBytesTolerant(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: tolerant reader returned %v, want %q", name, err, want)
		}
	}
}
