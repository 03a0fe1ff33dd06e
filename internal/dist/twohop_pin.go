package dist

import "navaug/internal/graph"

// TwoHopPin is a target-pinned view of a TwoHop oracle.  Greedy routing
// asks Dist(v, t) for every neighbour v at every hop with the same target
// t; pinning scatters t's label once into a dense hub-rank-indexed buffer,
// so each pinned probe is a single pass over L_v,
//
//	Dist(v, t) = min over h in L_v of dist(v, h) + pin[h],
//
// with no merge and no re-decoding of L_t (Akiba, Iwata & Yoshida's
// pruned landmark labeling answers queries the same way once one endpoint
// is fixed).  Hubs absent from L_t hold twoHopPinAbsent, which no real sum
// reaches, so answers are exactly the unpinned TwoHop.Dist ones, including
// graph.Unreachable across components.
//
// The buffer remembers which oracle and target it holds.  Pin clears the
// previous target's entries through that oracle's label before it writes
// the new one — O(|L_t|) per re-pin, not O(n) — and an oracle of another
// size starts from a fresh buffer.  Every Pin runs the clear, so a pin
// whose route was abandoned half-way (a panic, an error) never leaves
// stale entries for the next one.  The view keeps its last oracle
// reachable until the next Pin.  The zero value is ready to Pin; a
// TwoHopPin is not safe for concurrent use (keep one per worker, as
// route.Scratch does).
type TwoHopPin struct {
	o      *TwoHop
	target graph.NodeID
	dense  []int32 // hub rank -> dist(hub, target), twoHopPinAbsent elsewhere
}

// Pin points the view at target t of oracle o.
func (p *TwoHopPin) Pin(o *TwoHop, t graph.NodeID) {
	if len(p.dense) != int(o.n) {
		p.dense = make([]int32, o.n)
		for i := range p.dense {
			p.dense[i] = twoHopPinAbsent
		}
	} else if p.o != nil {
		p.o.scatter(p.target, p.dense, true)
	}
	// Record the new target before writing it: a scatter cut short leaves
	// a subset of L_t, which the next Pin's clear still covers.
	p.o, p.target = o, t
	o.scatter(t, p.dense, false)
}

// scatter writes v's label into dense (dense[h] = dist(v, h)), or resets
// those entries to twoHopPinAbsent when clear is set.
func (t *TwoHop) scatter(v graph.NodeID, dense []int32, clear bool) {
	blob := t.blob
	i, end := t.poff[v], t.poff[v+1]
	h := int32(-1)
	for i < end {
		var x, d int32
		x, i = twoHopVarint(blob, i)
		h += x + 1
		d, i = twoHopVarint(blob, i)
		if clear {
			d = twoHopPinAbsent
		}
		dense[h] = d
	}
}

// Dist implements Source.  Queries for the pinned target scan L_u alone;
// any other target falls through to the unpinned TwoHop.Dist.
func (p *TwoHopPin) Dist(u, t graph.NodeID) int32 {
	o := p.o
	if t != p.target {
		return o.Dist(u, t)
	}
	if u == t {
		return 0
	}
	pin := p.dense
	best := twoHopPinAbsent
	blob := o.blob
	i, end := o.poff[u], o.poff[u+1]
	h := int32(-1)
	for i < end {
		var x, d int32
		x, i = twoHopVarint(blob, i)
		h += x + 1
		d, i = twoHopVarint(blob, i)
		best = min(best, d+pin[h])
	}
	if best >= twoHopPinAbsent {
		return graph.Unreachable
	}
	return best
}
