// Package snapshot implements the persistent binary format for built
// routing artefacts — the layer that turns the repository's in-process
// oracles into a service: build once, snapshot to disk, and serve forever
// without re-running any build.
//
// A .navsnap file packs, per section:
//
//   - the graph CSR (offsets + adjacency, reconstructed zero-rebuild via
//     graph.FromCSR),
//   - the exact 2-hop-cover labels of dist.TwoHop (hub order, per-node
//     byte offsets and the varint label blob, reconstructed via
//     dist.TwoHopPackedFromRaw),
//   - the analytic-metric descriptor — the gen registry name under which
//     the loader re-resolves the closed-form metric via gen.MetricFor,
//   - one or more frozen augmentation tables: full contact draws sampled
//     from a prepared scheme at snapshot time, served as augment.Static
//     instances,
//   - a JSON meta section recording how the snapshot was built.
//
// # Wire format
//
// All integers are little-endian; every array slab starts 8-byte aligned
// and is zero-padded to a multiple of 8 bytes, so on little-endian hosts
// the reader hands out zero-copy views into the file buffer (an
// mmap-friendly layout: no decode pass touches the big slabs).  Big-endian
// or misaligned hosts fall back to an explicit conversion loop.
//
//	header (24 bytes):
//	  [0:8)    magic "NAVSNAP1"
//	  [8:12)   u32 format version, 1 or 2
//	  [12:16)  u32 section count S (at most MaxSections)
//	  [16:24)  u64 checksum of the section table bytes
//	section table (S × 40 bytes):
//	  u32 kind, u32 flags (0), u64 offset, u64 length, u64 checksum of
//	  the payload, u64 reserved (0)
//	payloads: 8-byte aligned, in table order
//
// The two versions share this layout and differ only in the checksum:
// version 1 uses CRC-64/ECMA, version 2 CRC-32C (Castagnoli), stored
// zero-extended in the same 8-byte fields, so a set high half is a
// mismatch.  Writers emit version 2; readers accept both, so version 1
// files keep loading.  The version numbers differ in two bits, so no
// single bit flip switches the checksum.
//
// Readers verify the magic, version, table checksum, section bounds and
// alignment, and each payload's checksum before parsing a byte of it;
// each section parser then bounds-checks every declared count against the
// section length before allocating, so truncated, corrupted or hostile
// inputs fail with an error — never a panic or an unbounded allocation
// (FuzzSnapshotRead pins this).  Sections are checked concurrently, and
// errors are reported in the order a front-to-back read meets them.
package snapshot

import (
	"fmt"
	"hash/crc32"
	"hash/crc64"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
)

// Format constants.  MagicV1 both identifies the file type and pins the
// major layout; FormatVersion is the version writers emit.
const (
	MagicV1       = "NAVSNAP1"
	FormatVersion = 2

	headerSize       = 24
	sectionEntrySize = 40
)

// Section kinds.  A snapshot carries at most one 2-hop section.  Writers
// emit kindTwoHopPacked, the delta+varint label streams.  kindTwoHop is
// the legacy uncompressed CSR layout: readers still accept it and pack it
// at load (dist.TwoHopFromRaw), so old snapshots keep serving.
const (
	kindMeta         uint32 = 1
	kindGraph        uint32 = 2
	kindMetric       uint32 = 3
	kindTwoHop       uint32 = 4
	kindScheme       uint32 = 5
	kindTwoHopPacked uint32 = 6
)

// Reader hardening caps: structural bounds checked before any allocation,
// keeping a hostile header from forcing gigabyte allocations the way the
// graph.Read text caps do.
const (
	// MaxSections bounds the section table.
	MaxSections = 64
	// MaxNodes bounds every per-node array (2^28 nodes ≫ the 2^20 regime
	// the experiments reach, while keeping n·8 bytes comfortably in range).
	MaxNodes = 1 << 28
	// MaxNameLen bounds embedded strings (graph/metric/scheme names).
	MaxNameLen = 4096
	// MaxDraws bounds the frozen augmentation tables per scheme section.
	MaxDraws = 1024
)

var (
	crc64Table  = crc64.MakeTable(crc64.ECMA)
	crc32cTable = crc32.MakeTable(crc32.Castagnoli)
)

// checksum is the checksum of b under format version 1 (CRC-64/ECMA) or
// 2 (CRC-32C, zero-extended; the stdlib runs it on the CPU's CRC32
// instructions where there are any).
func checksum(version uint32, b []byte) uint64 {
	if version == 1 {
		return crc64.Checksum(b, crc64Table)
	}
	return uint64(crc32.Checksum(b, crc32cTable))
}

// Meta is the JSON build-provenance section: which family/size/seed the
// snapshot froze and under which oracle policy it was built.  It is
// informational for /v1/stats and tooling; the binary sections are
// self-describing and cross-checked against it on load.
type Meta struct {
	Tool          string `json:"tool"`
	FormatVersion int    `json:"format_version"`
	Family        string `json:"family"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	Seed          uint64 `json:"seed"`
	Oracle        string `json:"oracle,omitempty"`
}

// SchemeTable is one frozen augmentation: Draws[k][u] is the long-range
// contact of node u in the k-th full draw of the named scheme (sampled at
// snapshot build time from the prepared scheme with the recorded seed).
type SchemeTable struct {
	Name  string
	Seed  uint64
	Draws [][]graph.NodeID
}

// Instance wraps one frozen draw as an augment.Instance (an
// augment.Static); draw indexes Draws.
func (st *SchemeTable) Instance(draw int) (augment.Instance, error) {
	if draw < 0 || draw >= len(st.Draws) {
		return nil, fmt.Errorf("snapshot: scheme %s has %d draws, requested %d", st.Name, len(st.Draws), draw)
	}
	return augment.NewStatic(st.Name, st.Draws[draw])
}

// Snapshot is the in-memory form of a .navsnap file: every artefact ready
// to serve, with no build step between Read and the first query.
type Snapshot struct {
	Meta  Meta
	Graph *graph.Graph
	// MetricName, when non-empty, declares that the graph's closed-form
	// analytic metric is packed (by gen registry name — the metric itself
	// is pure code, so the descriptor is its name).  Read resolves it into
	// Metric and fails loudly if the registry no longer recognises it.
	MetricName string
	// Metric is the resolved analytic metric; nil when MetricName is empty.
	// Writers may leave it nil — only MetricName is serialised.
	Metric dist.Source
	// TwoHop is the packed exact 2-hop-cover oracle, nil when not built
	// (families with an analytic metric usually skip it).
	TwoHop *dist.TwoHop
	// Schemes are the frozen augmentation tables, in section order.
	Schemes []SchemeTable
	// Quarantined lists the optional sections a tolerant load (ReadBytesTolerant)
	// dropped because their checksum or structure was damaged — e.g.
	// "twohop", "metric", "scheme[2]".  A strict load never populates it:
	// the same damage is a hard error there.  Servers use it to enter the
	// degraded answer tier instead of refusing to start.
	Quarantined []string
}

// Source returns the snapshot's O(1) point-to-point distance tier: the
// analytic metric when packed, else the 2-hop oracle, else nil (callers
// fall back to per-target BFS fields; the serve layer does so with a
// bounded field cache).
func (s *Snapshot) Source() dist.Source {
	if s.Metric != nil {
		return s.Metric
	}
	if s.TwoHop != nil {
		// A typed-nil guard: a nil *dist.TwoHop must not escape as a
		// non-nil dist.Source.
		return s.TwoHop
	}
	return nil
}

// Scheme returns the named frozen scheme table ("" means the first one).
func (s *Snapshot) Scheme(name string) (*SchemeTable, error) {
	if len(s.Schemes) == 0 {
		return nil, fmt.Errorf("snapshot: no augmentation tables packed")
	}
	if name == "" {
		return &s.Schemes[0], nil
	}
	for i := range s.Schemes {
		if s.Schemes[i].Name == name {
			return &s.Schemes[i], nil
		}
	}
	return nil, fmt.Errorf("snapshot: no scheme %q packed (have: %s)", name, schemeNames(s.Schemes))
}

func schemeNames(tables []SchemeTable) string {
	out := ""
	for i := range tables {
		if i > 0 {
			out += ", "
		}
		out += tables[i].Name
	}
	return out
}
