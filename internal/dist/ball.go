package dist

import "navaug/internal/graph"

// BallBuffer is reusable scratch space for bounded-ball enumeration.  An
// epoch-marked seen array lets consecutive enumerations skip the O(n)
// clearing step, so a buffer kept in a sync.Pool makes repeated ball draws
// allocation-free.  A BallBuffer is not safe for concurrent use.
type BallBuffer struct {
	seen  []int32 // epoch marks, len n
	epoch int32
	nodes []graph.NodeID
	dists []int32
}

// NewBallBuffer returns a buffer for graphs with n nodes.
func NewBallBuffer(n int) *BallBuffer {
	return &BallBuffer{
		seen:  make([]int32, n),
		nodes: make([]graph.NodeID, 0, 64),
		dists: make([]int32, 0, 64),
	}
}

// Ball enumerates B(src, radius) in non-decreasing distance order, src
// first at distance 0.  The returned slices are owned by the buffer and
// valid only until the next call.  A negative radius yields empty slices.
func (b *BallBuffer) Ball(g *graph.Graph, src graph.NodeID, radius int32) ([]graph.NodeID, []int32) {
	b.epoch++
	if b.epoch == 0 { // wrapped around; clear marks
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
	b.nodes = b.nodes[:0]
	b.dists = b.dists[:0]
	if radius < 0 {
		return b.nodes, b.dists
	}
	b.seen[src] = b.epoch
	b.nodes = append(b.nodes, src)
	b.dists = append(b.dists, 0)
	for head := 0; head < len(b.nodes); head++ {
		u := b.nodes[head]
		du := b.dists[head]
		if du == radius {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if b.seen[v] != b.epoch {
				b.seen[v] = b.epoch
				b.nodes = append(b.nodes, v)
				b.dists = append(b.dists, du+1)
			}
		}
	}
	return b.nodes, b.dists
}
