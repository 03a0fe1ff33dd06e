package dist

import (
	"fmt"

	"navaug/internal/graph"
)

// SourcePolicy selects which distance-source tier greedy routing steers by
// on a given graph.  The tiers answer identical distances (each one is
// exact and pinned to BFS ground truth by the disttest conformance suite),
// so the policy never changes results — only build time, query time and
// memory.  It is threaded from the navsim -oracle flag through
// scenario.Config and sim.Config down to the per-graph resolution in
// ResolveWith.
type SourcePolicy string

const (
	// PolicyAuto picks the cheapest exact tier per graph: the closed-form
	// analytic metric when the family has one, else a 2-hop-cover oracle
	// for graphs of at least TwoHopAutoMinNodes nodes — abandoned at a
	// bounded label budget (TwoHopAutoMaxAvgLabel) on graphs whose covers
	// grow too fast — else per-target BFS fields.
	PolicyAuto SourcePolicy = "auto"
	// PolicyAnalytic uses the analytic metric when available and BFS
	// fields otherwise, never building labels (the pre-2-hop behaviour).
	PolicyAnalytic SourcePolicy = "analytic"
	// PolicyTwoHop always builds the exact 2-hop-cover oracle, even on
	// graphs with an analytic metric and with no label budget.
	PolicyTwoHop SourcePolicy = "twohop"
	// PolicyTwoHopPacked is a synonym of PolicyTwoHop, kept so existing
	// command lines still parse; ParseSourcePolicy maps it to PolicyTwoHop.
	PolicyTwoHopPacked SourcePolicy = "twohop-packed"
	// PolicyField always steers by per-target BFS distance fields.
	PolicyField SourcePolicy = "field"
)

// TwoHopAutoMinNodes is the graph size at which PolicyAuto starts paying
// the 2-hop label build for graphs without an analytic metric.  Below it,
// the handful of per-target BFS fields an estimation needs is cheaper than
// any label build.
const TwoHopAutoMinNodes = 32768

// TwoHopAutoMaxAvgLabel is the per-node label budget PolicyAuto hands to
// the 2-hop build.  Graphs that exceed it (expander-like families whose
// 2-hop covers grow ~sqrt(n)) abort the build at bounded cost and fall
// back to BFS fields.  The budget is sized in memory, not entries: labels
// are packed (delta+varint, ~2 bytes per entry instead of 8), so 256
// entries cost what 64 uncompressed entries did when the budget was
// introduced — hub-dominated families like powerlaw clear it while the
// expander-like families still abort at bounded cost.  -oracle twohop
// forces a build with no budget.
const TwoHopAutoMaxAvgLabel = 256

// ParseSourcePolicy converts a CLI string into a policy ("" means auto,
// "twohop-packed" means twohop).
func ParseSourcePolicy(s string) (SourcePolicy, error) {
	switch SourcePolicy(s) {
	case "":
		return PolicyAuto, nil
	case PolicyTwoHopPacked:
		return PolicyTwoHop, nil
	case PolicyAuto, PolicyAnalytic, PolicyTwoHop, PolicyField:
		return SourcePolicy(s), nil
	}
	return "", fmt.Errorf("dist: unknown oracle policy %q (known: auto, analytic, twohop, twohop-packed, field)", s)
}

// ResolveWith picks the distance Source for g under the policy.  metric is
// the graph's closed-form analytic metric when one exists (resolution is
// the caller's job — typically gen.MetricFor — to keep this package free
// of a generator dependency).  A nil return means "use per-target BFS
// fields"; everything else is a shared exact Source.  Resolution is
// deterministic: for a fixed (graph, metric, policy) it always returns the
// same tier.  An unknown policy string panics — a misspelled policy
// silently running a different tier than asked would be a debugging trap;
// CLI input goes through ParseSourcePolicy, so reaching here with garbage
// is a programming error (the same convention the gen generators follow).
//
// workers is the label-build worker count (0 means GOMAXPROCS); callers
// that own a worker pool — scenario.Runner — thread their -workers setting
// through so oracle builds respect the same parallelism budget as
// everything else in the run.  The built labels are byte-identical at
// every worker count.
func (p SourcePolicy) ResolveWith(g *graph.Graph, metric Source, workers int) Source {
	switch p {
	case PolicyField:
		return nil
	case PolicyAnalytic:
		return metric
	case PolicyTwoHop, PolicyTwoHopPacked:
		return NewTwoHopWith(g, TwoHopOptions{Workers: workers})
	case PolicyAuto, "":
		if metric != nil {
			return metric
		}
		if g.N() >= TwoHopAutoMinNodes {
			if t := NewTwoHopWith(g, TwoHopOptions{Workers: workers, MaxAvgLabel: TwoHopAutoMaxAvgLabel}); t != nil {
				return t
			}
		}
		return nil
	default:
		panic(fmt.Sprintf("dist: unknown oracle policy %q (use ParseSourcePolicy for untrusted input)", string(p)))
	}
}
