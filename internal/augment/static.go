package augment

import (
	"fmt"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// Static is an Instance backed by a frozen contact table: contacts[u] is
// the long-range contact of u (u itself meaning "no link"), drawn once and
// never redrawn.  It is how snapshots serve augmentations — a snapshot
// packs one or more full contact tables sampled from a prepared scheme at
// build time, and the serve layer routes over those concrete augmented
// graphs without ever re-running the scheme's Prepare.  Contact is a plain
// array read: O(1), allocation-free, trivially safe for concurrent use.
type Static struct {
	name     string
	contacts []graph.NodeID
}

// NewStatic wraps a contact table as an Instance.  Every entry must be a
// valid node id of the n-node graph the table was drawn on (entries equal
// to their own index mean "no long-range link").
func NewStatic(name string, contacts []graph.NodeID) (*Static, error) {
	n := graph.NodeID(len(contacts))
	for u, c := range contacts {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("augment: static contact table entry %d = %d out of range [0,%d)", u, c, n)
		}
	}
	return &Static{name: name, contacts: contacts}, nil
}

// Name returns the identifier of the scheme the table was drawn from.
func (s *Static) Name() string { return s.name }

// N returns the number of nodes the table covers.
func (s *Static) N() int { return len(s.contacts) }

// Contact implements Instance by indexing the frozen table; the rng is
// ignored (the draw happened at freeze time).
func (s *Static) Contact(u graph.NodeID, _ *xrand.RNG) graph.NodeID { return s.contacts[u] }
