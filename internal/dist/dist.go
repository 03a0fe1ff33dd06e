// Package dist is the distance-oracle layer shared by every augmentation
// scheme and by the Monte Carlo engine.
//
// The package offers five tiers of distance information, trading
// preprocessing cost against query cost:
//
//   - Source: the point-to-point query interface the routing hot path
//     steers by.  Analytic implementations for structured graph families
//     (internal/graph/gen) answer Dist(u, t) in O(1) time and memory with
//     no preprocessing at all, which is what makes million-node routing
//     experiments feasible; every other tier plugs in behind the same
//     interface (a BFS field wraps into a Source via NewField).
//   - TwoHop: an exact 2-hop-cover oracle (pruned landmark labeling) for
//     arbitrary graphs.  Degree-ordered pruned BFS construction,
//     delta+varint packed labels, O(|label_u| + |label_v|) queries in O(1)
//     memory.  Labels stay
//     polylog on tree-like and hub-dominated families (E12 rides it to
//     n = 2^20) and grow ~sqrt(n) on expanders — the SourcePolicy budget
//     decides when it is worth building.
//   - APSP: an exact all-pairs oracle backed by one flat int32 matrix,
//     computed by a worker pool of BFS sweeps.  O(n·(n+m)) preprocessing and
//     O(n²) memory, O(1) queries.  The right tool up to a few thousand
//     nodes, and what the path-decomposition machinery feeds on.
//   - LandmarkOracle: an approximate oracle built from k landmark BFS
//     trees.  O(k·(n+m)) preprocessing, O(k) queries returning triangle-
//     inequality lower/upper bounds (never an underestimate from Dist;
//     exact when an endpoint is a landmark).
//   - FieldCache: a concurrent cache of single-source distance fields,
//     amortising the per-target BFS that greedy routing needs across
//     trials, pairs and scheme comparisons on graphs with no analytic
//     metric.
//
// Every exact tier is pinned to BFS ground truth — and the landmark tier
// to its bound contract — by the reusable conformance harness in
// internal/dist/disttest.  SourcePolicy (policy.go) picks the tier a run
// steers by (analytic metric, 2-hop labels, BFS fields); the choice never
// affects results, only cost.  The bounded-ball enumeration used by the
// Theorem 4 scheme (Ball, BallBuffer) lives here too so that its
// scratch-buffer discipline is shared rather than duplicated per scheme.
package dist

// CeilLog2 returns ⌈log₂ n⌉ for n ≥ 1 (and 0 for n ≤ 1).  It is the number
// of ball scales the Theorem 4 scheme mixes over.
func CeilLog2(n int) int {
	k := 0
	for s := 1; s < n; s *= 2 {
		k++
	}
	return k
}
