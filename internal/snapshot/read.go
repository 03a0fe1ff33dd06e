package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"sync"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
)

// ReadFile loads a snapshot from disk.  The returned snapshot's big arrays
// alias the file buffer on little-endian hosts (zero-copy); the buffer
// stays reachable for the snapshot's lifetime.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ReadBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ReadFileTolerant is ReadFile under the tolerant (quarantining) reader:
// the file must still be structurally sound, but damaged optional
// sections are dropped into Snapshot.Quarantined instead of failing the
// load.  This is the serving-stack load path: a snapshot with a corrupt
// 2-hop section still serves, degraded, rather than refusing to start.
func ReadFileTolerant(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ReadBytesTolerant(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Read loads a snapshot from a stream (convenience over ReadBytes).
func Read(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ReadBytes(b)
}

// ReadBytes parses and validates a snapshot from b.  The buffer must stay
// immutable afterwards: on little-endian hosts the returned graph, label
// and contact arrays are zero-copy views into it.
//
// Validation is layered so hostile input fails at bounded cost: header
// magic/version/table checksum first, then one serial pass over the
// section table for bounds, alignment, padding and the file's tail.  Each
// section that pass accepts is then checked on its own goroutine: its
// payload checksum and its structural parse, where every declared count
// is checked against the (already length-verified) payload before any
// slice is materialised, and the semantic invariants of its artefact
// (graph.FromCSR, dist.TwoHopPackedFromRaw, contact ranges).  Each
// payload is checksummed on a further goroutine while it is parsed, and
// the graph and 2-hop checks split into node ranges on GOMAXPROCS
// goroutines, so the read uses every core.  The results are weighed in
// table order, cross-section consistency last, with a checksum mismatch
// ahead of the same section's parse result, so a file with several
// faults fails with the error a front-to-back read meets first, whatever
// order the goroutines finish in, and nothing parsed from a damaged
// payload is ever used.
func ReadBytes(b []byte) (*Snapshot, error) { return readBytes(b, false) }

// ReadBytesTolerant is ReadBytes with load-time quarantine: structural
// damage (header, section table, layout) and damage to the mandatory meta
// and graph sections still fail the load, but a checksum mismatch or parse
// error in an *optional* section (metric, twohop, scheme) drops just that
// section, recording it in Snapshot.Quarantined in the order a
// front-to-back read meets the damage.  The returned snapshot is fully
// usable minus the quarantined artefacts — exactly the degraded state the
// serve layer's answer ladder is built for.
func ReadBytesTolerant(b []byte) (*Snapshot, error) { return readBytes(b, true) }

func readBytes(b []byte, tolerant bool) (*Snapshot, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the %d-byte header", len(b), headerSize)
	}
	if string(b[0:8]) != MagicV1 {
		return nil, fmt.Errorf("snapshot: bad magic %q", b[0:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this reader handles %d)", v, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(b[12:16])
	if count == 0 || count > MaxSections {
		return nil, fmt.Errorf("snapshot: section count %d out of range [1,%d]", count, MaxSections)
	}
	tableEnd := headerSize + sectionEntrySize*int(count)
	if tableEnd > len(b) {
		return nil, fmt.Errorf("snapshot: truncated section table (%d sections need %d bytes, file has %d)", count, tableEnd, len(b))
	}
	if got, want := crc64.Checksum(b[headerSize:tableEnd], crcTable), binary.LittleEndian.Uint64(b[16:24]); got != want {
		return nil, fmt.Errorf("snapshot: section table checksum mismatch (file %016x, computed %016x)", want, got)
	}

	secs, layoutErr := readLayout(b, int(count), tableEnd)
	// One goroutine per section the layout pass accepted: at most
	// MaxSections, and each reads only its own payload.
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			secs[i].check()
		}()
	}
	wg.Wait()

	// Weigh the findings in table order, exactly as a front-to-back read
	// would have made them.
	s := &Snapshot{}
	var sawMeta, sawGraph, sawMetric, sawTwoHop bool
	var twoHop *section
	type schemePending struct {
		idx int // per-kind index, for the quarantine name
		sec *section
	}
	var pendingSchemes []schemePending
	schemeIdx := 0
	// quarantine drops one optional section under the tolerant reader.
	quarantine := func(kind uint32) {
		switch kind {
		case kindMetric:
			s.Quarantined = append(s.Quarantined, "metric")
		case kindTwoHop, kindTwoHopPacked:
			s.Quarantined = append(s.Quarantined, "twohop")
		case kindScheme:
			s.Quarantined = append(s.Quarantined, fmt.Sprintf("scheme[%d]", schemeIdx))
		}
	}
	for i := range secs {
		sec := &secs[i]
		kind := sec.kind
		if sec.crc != sec.sum {
			if tolerant && (kind == kindMetric || kind == kindTwoHop || kind == kindTwoHopPacked || kind == kindScheme) {
				// The layout pass already validated this slab's place in
				// the file; only its contents are damaged.  Keep the
				// saw-flags honest (a duplicate of a quarantined section is
				// still a duplicate) and drop just this artefact.
				switch kind {
				case kindMetric:
					if sawMetric {
						return nil, fmt.Errorf("snapshot: duplicate metric section")
					}
					sawMetric = true
				case kindTwoHop, kindTwoHopPacked:
					if sawTwoHop {
						return nil, fmt.Errorf("snapshot: duplicate 2-hop section")
					}
					sawTwoHop = true
				}
				quarantine(kind)
				if kind == kindScheme {
					schemeIdx++
				}
				continue
			}
			return nil, fmt.Errorf("snapshot: section %d (kind %d) checksum mismatch (file %016x, computed %016x)", i, kind, sec.sum, sec.crc)
		}
		switch kind {
		case kindMeta:
			if sawMeta {
				return nil, fmt.Errorf("snapshot: duplicate meta section")
			}
			sawMeta = true
			if err := json.Unmarshal(sec.payload, &s.Meta); err != nil {
				return nil, fmt.Errorf("snapshot: bad meta section: %w", err)
			}
		case kindGraph:
			if sawGraph {
				return nil, fmt.Errorf("snapshot: duplicate graph section")
			}
			sawGraph = true
			if sec.err != nil {
				return nil, sec.err
			}
			s.Graph = sec.graph
		case kindMetric:
			if sawMetric {
				return nil, fmt.Errorf("snapshot: duplicate metric section")
			}
			sawMetric = true
			c := &cursor{b: sec.payload}
			name, err := c.str("metric name")
			if err == nil {
				err = c.done()
			}
			if err != nil {
				if tolerant {
					quarantine(kind)
					continue
				}
				return nil, err
			}
			s.MetricName = name
		case kindTwoHop, kindTwoHopPacked:
			if sawTwoHop {
				return nil, fmt.Errorf("snapshot: duplicate 2-hop section")
			}
			sawTwoHop = true
			twoHop = sec
		case kindScheme:
			pendingSchemes = append(pendingSchemes, schemePending{idx: schemeIdx, sec: sec})
			schemeIdx++
		default:
			return nil, fmt.Errorf("snapshot: unknown section kind %d", kind)
		}
	}
	if layoutErr != nil {
		return nil, layoutErr
	}
	if !sawGraph {
		return nil, fmt.Errorf("snapshot: no graph section")
	}
	if !sawMeta {
		return nil, fmt.Errorf("snapshot: no meta section")
	}
	if s.Meta.N != s.Graph.N() || s.Meta.M != s.Graph.M() {
		return nil, fmt.Errorf("snapshot: meta says n=%d m=%d, graph section holds n=%d m=%d",
			s.Meta.N, s.Meta.M, s.Graph.N(), s.Graph.M())
	}

	// The cross-referencing sections count after the graph regardless of
	// their order in the table, so their node counts can be checked.
	if s.MetricName != "" {
		if err := resolveMetric(s); err != nil {
			if !tolerant {
				return nil, err
			}
			s.MetricName = ""
			quarantine(kindMetric)
		}
	}
	if twoHop != nil {
		if err := twoHop.fitGraph("2-hop", s.Graph.N()); err != nil {
			if !tolerant {
				return nil, err
			}
			quarantine(kindTwoHopPacked)
		} else {
			s.TwoHop = twoHop.twoHop
		}
	}
	for _, p := range pendingSchemes {
		if err := p.sec.fitGraph("scheme", s.Graph.N()); err != nil {
			if !tolerant {
				return nil, err
			}
			s.Quarantined = append(s.Quarantined, fmt.Sprintf("scheme[%d]", p.idx))
			continue
		}
		s.Schemes = append(s.Schemes, *p.sec.scheme)
	}
	return s, nil
}

// section is one section-table entry whose place in the file the layout
// pass accepted, with what check found in its payload.
type section struct {
	kind    uint32
	payload []byte
	sum     uint64 // the checksum the table records
	crc     uint64 // the checksum of the payload as read

	// The artefact a graph, 2-hop or scheme section parses to.
	graph  *graph.Graph
	twoHop *dist.TwoHop
	scheme *SchemeTable
	n      int   // node count a 2-hop or scheme section declares; -1 if unread
	err    error // the parse's first error, a node-count mismatch aside
}

// readLayout walks the section table: reserved fields, canonical offsets,
// bounds and zero padding, then the file's tail.  It returns the sections
// before the first layout fault, and that fault, which a front-to-back
// read meets only after those sections' own checks.
func readLayout(b []byte, count, tableEnd int) ([]section, error) {
	secs := make([]section, 0, count)
	prevEnd := uint64(tableEnd)
	for i := 0; i < count; i++ {
		e := b[headerSize+sectionEntrySize*i:]
		kind := binary.LittleEndian.Uint32(e[0:4])
		flags := binary.LittleEndian.Uint32(e[4:8])
		offset := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		sum := binary.LittleEndian.Uint64(e[24:32])
		reserved := binary.LittleEndian.Uint64(e[32:40])
		if flags != 0 || reserved != 0 {
			return secs, fmt.Errorf("snapshot: section %d has non-zero reserved fields", i)
		}
		// Canonical layout only: payloads in table order, 8-aligned, with
		// zero padding between them.  Rejecting overlapping or out-of-order
		// sections keeps a hostile file from aliasing one slab under two
		// interpretations.
		if offset != uint64(align8(int(prevEnd))) {
			return secs, fmt.Errorf("snapshot: section %d payload at offset %d, canonical layout wants %d", i, offset, align8(int(prevEnd)))
		}
		if offset > uint64(len(b)) || length > uint64(len(b))-offset {
			return secs, fmt.Errorf("snapshot: section %d [%d,+%d) overruns the %d-byte file", i, offset, length, len(b))
		}
		for _, pad := range b[prevEnd:offset] {
			if pad != 0 {
				return secs, fmt.Errorf("snapshot: non-zero padding before section %d", i)
			}
		}
		prevEnd = offset + length
		secs = append(secs, section{kind: kind, payload: b[offset : offset+length], sum: sum, n: -1})
	}
	if uint64(len(b)) != uint64(align8(int(prevEnd))) {
		return secs, fmt.Errorf("snapshot: %d trailing bytes after the last section", uint64(len(b))-prevEnd)
	}
	for _, pad := range b[prevEnd:] {
		if pad != 0 {
			return secs, fmt.Errorf("snapshot: non-zero padding after the last section")
		}
	}
	return secs, nil
}

// check checksums the payload and parses and validates a graph, 2-hop or
// scheme artefact.  It reads only the section itself, so the sections of
// one file check concurrently.  The checksum runs on a goroutine of its
// own beside the parse, so the decoders must be safe on any bytes;
// readBytes weighs a checksum mismatch before the parse result, so a
// mismatch outranks every parse error, and an artefact parsed from a
// damaged payload is never used.
func (sec *section) check() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sec.crc = crc64.Checksum(sec.payload, crcTable)
	}()
	sec.parse()
	<-done
}

// parse decodes the artefact of a graph, 2-hop or scheme section.
func (sec *section) parse() {
	c := &cursor{b: sec.payload}
	switch sec.kind {
	case kindGraph:
		sec.graph, sec.err = decodeGraph(c)
	case kindTwoHop:
		sec.n, sec.twoHop, sec.err = decodeTwoHopRaw(c)
	case kindTwoHopPacked:
		sec.n, sec.twoHop, sec.err = decodeTwoHopPacked(c)
	case kindScheme:
		sec.n, sec.scheme, sec.err = decodeScheme(c)
	}
}

// fitGraph returns the section's parse error as a front-to-back read
// reports it: that read checks the declared node count against the graph
// right after reading it, so a mismatch outranks any later parse error.
func (sec *section) fitGraph(what string, graphN int) error {
	if sec.n >= 0 && sec.n != graphN {
		return fmt.Errorf("snapshot: %s section covers %d nodes, graph has %d", what, sec.n, graphN)
	}
	return sec.err
}

// resolveMetric turns the metric descriptor into the live analytic metric,
// enforcing the cross-section consistency checks of the strict reader.
func resolveMetric(s *Snapshot) error {
	if s.MetricName != s.Graph.Name() {
		return fmt.Errorf("snapshot: metric descriptor %q does not match graph name %q", s.MetricName, s.Graph.Name())
	}
	m, ok := gen.MetricFor(s.Graph)
	if !ok {
		return fmt.Errorf("snapshot: metric descriptor %q is not in the gen registry (registry drift?)", s.MetricName)
	}
	s.Metric = m
	return nil
}

func decodeGraph(c *cursor) (*graph.Graph, error) {
	n, err := c.count("node count", MaxNodes)
	if err != nil {
		return nil, err
	}
	m, err := c.count("edge count", MaxNodes*4)
	if err != nil {
		return nil, err
	}
	name, err := c.str("graph name")
	if err != nil {
		return nil, err
	}
	offsets, err := c.i64s("offsets", n+1)
	if err != nil {
		return nil, err
	}
	adj, err := c.i32s("adjacency", 2*m)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	g, err := graph.FromCSR(name, n, offsets, adj)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return g, nil
}

// decodeTwoHopRaw parses the legacy uncompressed 2-hop section that
// snapshots written before the single packed layout carry;
// dist.TwoHopFromRaw validates the labels and packs them at load.  Like
// every decoder of a section that covers the graph's nodes, it returns the
// node count it read (-1 if it could not) for section.fitGraph to check.
func decodeTwoHopRaw(c *cursor) (int, *dist.TwoHop, error) {
	n, err := c.count("2-hop node count", MaxNodes)
	if err != nil {
		return -1, nil, err
	}
	total, err := c.count("2-hop entry count", MaxNodes*64)
	if err != nil {
		return n, nil, err
	}
	order, err := c.i32s("hub order", n)
	if err != nil {
		return n, nil, err
	}
	index, err := c.i64s("label index", n+1)
	if err != nil {
		return n, nil, err
	}
	hubs, err := c.i32s("label hubs", total)
	if err != nil {
		return n, nil, err
	}
	dists, err := c.i32s("label dists", total)
	if err != nil {
		return n, nil, err
	}
	if err := c.done(); err != nil {
		return n, nil, err
	}
	t, err := dist.TwoHopFromRaw(n, order, index, hubs, dists)
	if err != nil {
		return n, nil, fmt.Errorf("snapshot: %w", err)
	}
	return n, t, nil
}

// decodeTwoHopPacked parses the compressed 2-hop section; the heavy
// lifting — varint well-formedness, monotone offsets, rank and distance
// ranges — happens in dist.TwoHopPackedFromRaw, which walks every label
// stream once before accepting the oracle.
func decodeTwoHopPacked(c *cursor) (int, *dist.TwoHop, error) {
	n, err := c.count("2-hop node count", MaxNodes)
	if err != nil {
		return -1, nil, err
	}
	blobLen, err := c.count("2-hop blob length", len(c.b))
	if err != nil {
		return n, nil, err
	}
	order, err := c.i32s("hub order", n)
	if err != nil {
		return n, nil, err
	}
	poff, err := c.i64s("label offsets", n+1)
	if err != nil {
		return n, nil, err
	}
	blob, err := c.bytes("label blob", blobLen)
	if err != nil {
		return n, nil, err
	}
	if err := c.done(); err != nil {
		return n, nil, err
	}
	t, err := dist.TwoHopPackedFromRaw(n, order, poff, blob)
	if err != nil {
		return n, nil, fmt.Errorf("snapshot: %w", err)
	}
	return n, t, nil
}

func decodeScheme(c *cursor) (int, *SchemeTable, error) {
	draws, err := c.count("draw count", MaxDraws)
	if err != nil {
		return -1, nil, err
	}
	if draws == 0 {
		return -1, nil, fmt.Errorf("snapshot: scheme section with zero draws")
	}
	n, err := c.count("scheme node count", MaxNodes)
	if err != nil {
		return -1, nil, err
	}
	seed, err := c.u64("scheme seed")
	if err != nil {
		return n, nil, err
	}
	name, err := c.str("scheme name")
	if err != nil {
		return n, nil, err
	}
	st := &SchemeTable{Name: name, Seed: seed}
	for k := 0; k < draws; k++ {
		table, err := c.i32s("contact table", n)
		if err != nil {
			return n, nil, err
		}
		for u, v := range table {
			if v < 0 || int(v) >= n {
				return n, nil, fmt.Errorf("snapshot: scheme %s draw %d contact[%d] = %d out of range [0,%d)", name, k, u, v, n)
			}
		}
		st.Draws = append(st.Draws, table)
	}
	if err := c.done(); err != nil {
		return n, nil, err
	}
	return n, st, nil
}

// cursor walks one section payload, mirroring the writer's enc: every slab
// read re-aligns to 8 bytes, every count is bounds-checked against both
// its structural cap and the remaining payload length before a slice is
// materialised, and done() requires full (padding-only) consumption so
// trailing garbage is rejected.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) u64(what string) (uint64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("snapshot: truncated %s field", what)
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

// count reads a u64 and validates it as a non-negative int at most max.
func (c *cursor) count(what string, max int) (int, error) {
	v, err := c.u64(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("snapshot: %s %d exceeds cap %d", what, v, max)
	}
	return int(v), nil
}

// str reads a u64 length plus that many bytes, padded to 8.
func (c *cursor) str(what string) (string, error) {
	l, err := c.count(what+" length", MaxNameLen)
	if err != nil {
		return "", err
	}
	if c.remaining() < align8(l) {
		return "", fmt.Errorf("snapshot: truncated %s", what)
	}
	v := string(c.b[c.off : c.off+l])
	c.off += align8(l)
	return v, nil
}

// i32s returns a count-element int32 view of the next slab (padded to 8).
func (c *cursor) i32s(what string, count int) ([]int32, error) {
	need := align8(count * 4)
	if count < 0 || count > (len(c.b)-c.off)/4 || c.remaining() < need {
		return nil, fmt.Errorf("snapshot: %s declares %d entries, only %d bytes remain", what, count, c.remaining())
	}
	v := viewInt32(c.b[c.off : c.off+count*4])
	c.off += need
	return v, nil
}

// bytes returns a count-byte view of the next slab (padded to 8).
func (c *cursor) bytes(what string, count int) ([]byte, error) {
	need := align8(count)
	if count < 0 || c.remaining() < need {
		return nil, fmt.Errorf("snapshot: %s declares %d bytes, only %d remain", what, count, c.remaining())
	}
	v := c.b[c.off : c.off+count]
	c.off += need
	return v, nil
}

// i64s returns a count-element int64 view of the next slab.
func (c *cursor) i64s(what string, count int) ([]int64, error) {
	if count < 0 || count > (len(c.b)-c.off)/8 {
		return nil, fmt.Errorf("snapshot: %s declares %d entries, only %d bytes remain", what, count, c.remaining())
	}
	v := viewInt64(c.b[c.off : c.off+count*8])
	c.off += count * 8
	return v, nil
}

// done verifies the whole payload was consumed exactly (the writer's enc
// keeps every payload a multiple of 8, so a well-formed section has no
// trailing bytes at all).
func (c *cursor) done() error {
	if c.remaining() != 0 {
		return fmt.Errorf("snapshot: %d unconsumed bytes in section", c.remaining())
	}
	return nil
}
