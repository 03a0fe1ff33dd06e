package dist

import (
	"sync"

	"navaug/internal/graph"
)

// FieldCache memoises single-source BFS distance fields ("fields") of one
// graph, keyed by source node.  It exists for the Monte Carlo engine:
// greedy routing needs the full distance field of the target, and the same
// targets recur across trials, across sampled pairs, and across the scheme
// comparisons that reuse one pair set — each such reuse would otherwise
// pay a fresh O(n+m) BFS.
//
// The cache is safe for concurrent use.  Each field is computed exactly
// once (concurrent requesters of the same source block on that one BFS,
// while different sources proceed in parallel) and handed out as a shared
// read-only slice that callers must not modify.
type FieldCache struct {
	g   *graph.Graph
	cap int

	mu     sync.Mutex
	fields map[graph.NodeID]*fieldEntry
	order  []graph.NodeID // insertion order, for FIFO eviction
}

type fieldEntry struct {
	once sync.Once
	d    []int32
}

// NewFieldCache returns a cache over g holding at most capacity fields
// (capacity <= 0 means unbounded).  Eviction is FIFO; evicted slices stay
// valid for holders, the cache merely forgets them.
func NewFieldCache(g *graph.Graph, capacity int) *FieldCache {
	return &FieldCache{g: g, cap: capacity, fields: make(map[graph.NodeID]*fieldEntry)}
}

// Graph returns the graph the cache was built over, letting consumers
// reject a cache that does not match the graph they are working on.
func (c *FieldCache) Graph() *graph.Graph { return c.g }

// Field returns the BFS distance field from src (length N, unreachable
// nodes at graph.Unreachable), computing and caching it on first use.
func (c *FieldCache) Field(src graph.NodeID) []int32 {
	c.mu.Lock()
	e, ok := c.fields[src]
	if !ok {
		e = &fieldEntry{}
		c.fields[src] = e
		c.order = append(c.order, src)
		if c.cap > 0 && len(c.order) > c.cap {
			delete(c.fields, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		d := make([]int32, c.g.N())
		for i := range d {
			d[i] = graph.Unreachable
		}
		c.g.BFSInto(src, d, nil)
		e.d = d
	})
	return e.d
}

// Len returns the number of fields currently cached.
func (c *FieldCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fields)
}
