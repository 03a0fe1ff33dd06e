package snapshot

import (
	"encoding/binary"
	"fmt"
)

// CorruptSection flips a byte in the payload of the first section of the
// named kind ("meta", "graph", "metric", "twohop" or "scheme"), in place;
// "twohop" names the 2-hop section in either of its layouts.
// The section table entry keeps the original checksum, so a strict
// ReadBytes rejects the buffer and a tolerant ReadBytesTolerant
// quarantines exactly that section.  It exists for fault injection — the
// chaos harness and the degradation tests use it to manufacture the
// damaged snapshots the tolerant reader is specified against.
func CorruptSection(b []byte, kind string) error {
	var want, legacy uint32
	switch kind {
	case "meta":
		want = kindMeta
	case "graph":
		want = kindGraph
	case "metric":
		want = kindMetric
	case "twohop":
		want, legacy = kindTwoHopPacked, kindTwoHop
	case "scheme":
		want = kindScheme
	default:
		return fmt.Errorf("snapshot: unknown section kind %q", kind)
	}
	if len(b) < headerSize || string(b[0:8]) != MagicV1 {
		return fmt.Errorf("snapshot: not a %s buffer", MagicV1)
	}
	count := binary.LittleEndian.Uint32(b[12:16])
	if count > MaxSections || headerSize+sectionEntrySize*int(count) > len(b) {
		return fmt.Errorf("snapshot: malformed section table")
	}
	for i := 0; i < int(count); i++ {
		e := b[headerSize+sectionEntrySize*i:]
		if k := binary.LittleEndian.Uint32(e[0:4]); k != want && (legacy == 0 || k != legacy) {
			continue
		}
		offset := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if length == 0 || offset > uint64(len(b)) || length > uint64(len(b))-offset {
			return fmt.Errorf("snapshot: section %d has no corruptible payload", i)
		}
		b[offset] ^= 0xFF
		return nil
	}
	return fmt.Errorf("snapshot: no %q section to corrupt", kind)
}
