package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
)

// Bytes serialises the snapshot into a fresh buffer in the wire format
// described in the package comment.  Serialisation is deterministic: equal
// snapshots produce byte-identical files (the round-trip tests rely on
// write → read → write fixpointing).
func (s *Snapshot) Bytes() ([]byte, error) {
	if s.Graph == nil {
		return nil, fmt.Errorf("snapshot: no graph to write")
	}
	type section struct {
		kind    uint32
		payload []byte
	}
	var secs []section

	meta := s.Meta
	meta.FormatVersion = FormatVersion // the version this file is written in
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	secs = append(secs, section{kindMeta, metaJSON})

	gp, err := encodeGraph(s)
	if err != nil {
		return nil, err
	}
	secs = append(secs, section{kindGraph, gp})

	if s.MetricName != "" {
		secs = append(secs, section{kindMetric, encodeString(s.MetricName)})
	}
	if s.TwoHop != nil {
		tp, err := encodeTwoHop(s)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{kindTwoHopPacked, tp})
	}
	for i := range s.Schemes {
		sp, err := encodeScheme(s, &s.Schemes[i])
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{kindScheme, sp})
	}
	if len(secs) > MaxSections {
		return nil, fmt.Errorf("snapshot: %d sections exceed the format cap %d", len(secs), MaxSections)
	}

	// Lay the payloads out 8-aligned after the section table and assemble.
	tableEnd := headerSize + sectionEntrySize*len(secs)
	total := align8(tableEnd)
	offsets := make([]int, len(secs))
	for i, sec := range secs {
		offsets[i] = total
		total = align8(total + len(sec.payload))
	}
	out := make([]byte, total)
	copy(out[0:8], MagicV1)
	binary.LittleEndian.PutUint32(out[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(secs)))
	for i, sec := range secs {
		e := out[headerSize+sectionEntrySize*i:]
		binary.LittleEndian.PutUint32(e[0:4], sec.kind)
		binary.LittleEndian.PutUint32(e[4:8], 0) // flags
		binary.LittleEndian.PutUint64(e[8:16], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(sec.payload)))
		binary.LittleEndian.PutUint64(e[24:32], checksum(FormatVersion, sec.payload))
		binary.LittleEndian.PutUint64(e[32:40], 0) // reserved
		copy(out[offsets[i]:], sec.payload)
	}
	binary.LittleEndian.PutUint64(out[16:24], checksum(FormatVersion, out[headerSize:tableEnd]))
	return out, nil
}

// writeChunk is the unit of the temp-file write loop; small enough that a
// kill mid-write reliably lands between chunks in the crash tests, large
// enough that syscall count stays negligible for real snapshots.
const writeChunk = 256 << 10

// writeStallHook, when set (by tests only), runs after every chunk lands in
// the temp file.  The crash-safety test uses it to signal "mid-write" to a
// parent process that then SIGKILLs this one.
var writeStallHook func(written int, f *os.File)

// WriteFile crash-safely writes the snapshot to path: the bytes go to a
// temp file in the destination directory, are fsynced, and only then
// renamed over path, with the directory fsynced after the rename.  A
// writer killed at any instant — including `kill -9` mid-write — therefore
// leaves either the old file intact or the new file complete; the only
// other residue is an unloadable .navsnap-tmp-* temp file (which never
// matches a server's -snapshot path).  TestWriteFileKillDuringWrite pins
// this by killing a real child process mid-write.
func (s *Snapshot) WriteFile(path string) error {
	b, err := s.Bytes()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dirOf(path), ".navsnap-tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	for written := 0; written < len(b); {
		end := written + writeChunk
		if end > len(b) {
			end = len(b)
		}
		if _, err := tmp.Write(b[written:end]); err != nil {
			return cleanup(err)
		}
		written = end
		if writeStallHook != nil {
			writeStallHook(written, tmp)
		}
	}
	// fsync before rename: otherwise a power cut after the rename could
	// surface the new name pointing at unflushed (zero-filled) data, which
	// is exactly the half-written state the atomic rename is meant to
	// exclude.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dirOf(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse fsync on directories don't get to fail the
// write — the rename itself already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1]
		}
	}
	return "."
}

func encodeGraph(s *Snapshot) ([]byte, error) {
	g := s.Graph
	name := g.Name()
	if len(name) > MaxNameLen {
		return nil, fmt.Errorf("snapshot: graph name of %d bytes exceeds cap %d", len(name), MaxNameLen)
	}
	if g.N() > MaxNodes {
		return nil, fmt.Errorf("snapshot: graph of %d nodes exceeds format cap %d", g.N(), MaxNodes)
	}
	offsets, adj := g.RawCSR()
	var e enc
	e.u64(uint64(g.N()))
	e.u64(uint64(g.M()))
	e.str(name)
	e.i64s(offsets)
	e.i32s(adj)
	return e.buf, nil
}

func encodeTwoHop(s *Snapshot) ([]byte, error) {
	t := s.TwoHop
	if t.N() != s.Graph.N() {
		return nil, fmt.Errorf("snapshot: 2-hop oracle covers %d nodes, graph has %d", t.N(), s.Graph.N())
	}
	order, poff, blob := t.RawPacked()
	var e enc
	e.u64(uint64(t.N()))
	e.u64(uint64(len(blob)))
	e.i32s(order)
	e.i64s(poff)
	e.raw(blob)
	return e.buf, nil
}

func encodeScheme(s *Snapshot, st *SchemeTable) ([]byte, error) {
	n := s.Graph.N()
	if len(st.Name) > MaxNameLen {
		return nil, fmt.Errorf("snapshot: scheme name of %d bytes exceeds cap %d", len(st.Name), MaxNameLen)
	}
	if len(st.Draws) == 0 || len(st.Draws) > MaxDraws {
		return nil, fmt.Errorf("snapshot: scheme %s has %d draws, want 1..%d", st.Name, len(st.Draws), MaxDraws)
	}
	var e enc
	e.u64(uint64(len(st.Draws)))
	e.u64(uint64(n))
	e.u64(st.Seed)
	e.str(st.Name)
	for k, draw := range st.Draws {
		if len(draw) != n {
			return nil, fmt.Errorf("snapshot: scheme %s draw %d covers %d nodes, graph has %d", st.Name, k, len(draw), n)
		}
		e.i32s(draw)
	}
	return e.buf, nil
}

func encodeString(v string) []byte {
	var e enc
	e.str(v)
	return e.buf
}

func align8(v int) int { return (v + 7) &^ 7 }

// enc is a small append-only little-endian encoder; every slab it emits is
// zero-padded to 8 bytes so the next field stays aligned (matching the
// reader's cursor, which re-aligns after every slab).
type enc struct{ buf []byte }

func (e *enc) pad() {
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// str emits a u64 length followed by the raw bytes, padded to 8.
func (e *enc) str(v string) {
	e.u64(uint64(len(v)))
	e.buf = append(e.buf, v...)
	e.pad()
}

// raw emits the bytes as-is, padded to 8 (length is carried separately).
func (e *enc) raw(v []byte) {
	e.buf = append(e.buf, v...)
	e.pad()
}

func (e *enc) i32s(v []int32) {
	e.buf = appendInt32s(e.buf, v)
	e.pad()
}

func (e *enc) i64s(v []int64) {
	e.buf = appendInt64s(e.buf, v)
}
