// Package experiments defines one scenario spec per claim of the paper,
// plus the E11 large-n mode built on analytic distance oracles
// (see EXPERIMENTS.md, which is generated from All via
// `navsim list -format md`).  The paper is purely theoretical — it has no
// tables or figures — so every theorem and corollary is turned into a
// measurable sweep whose *shape* (scaling exponent, who wins, where the
// crossover falls) can be compared against the stated bounds.
//
// The specs are declarative (internal/scenario): each experiment names the
// graph instances and schemes it measures and how to tabulate them, while
// the scenario runner shares graph builds, distance fields, and prepared
// schemes across all experiments of a run and executes their cells
// concurrently.  The navsim CLI renders the resulting tables and the
// top-level benchmark harness runs them under `go test -bench`.
package experiments

import (
	"sort"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/graph"
	"navaug/internal/scenario"
)

// Config is the scenario run configuration (seed, scale, precision,
// parallelism); equal configs give equal tables.
type Config = scenario.Config

// DefaultConfig is the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config { return scenario.DefaultConfig() }

// All returns every experiment spec in order E1..E13.
func All() []scenario.Spec {
	return []scenario.Spec{E1(), E2(), E3(), E4(), E5(), E6(), E7(), E8(), E9(), E10(), E11(), E12(), E13()}
}

// ByID returns the experiment with the given (case-sensitive) identifier.
func ByID(id string) (scenario.Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return scenario.Spec{}, false
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	var ids []string
	for _, s := range All() {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}

// standardFamilies returns the graph families shared by E1/E7/E8: the ones
// the paper's universal claims must hold on.  Family names are cache
// identities in the scenario runner — experiments that use the same names
// and sizes measure the very same graph instances.
func standardFamilies() []scenario.Family {
	return []scenario.Family{
		scenario.Named("path"), scenario.Named("cycle"), scenario.Named("grid"),
		scenario.Named("random-tree"), scenario.Named("gnp"),
	}
}

// uniformScheme and ballScheme are the two universal schemes referenced all
// over the suite; sharing the refs (and their keys) across experiments is
// what lets the runner prepare each of them once per graph instance.
func uniformScheme() scenario.SchemeRef { return scenario.Scheme(augment.NewUniformScheme()) }

func ballScheme() scenario.SchemeRef { return scenario.Scheme(augment.NewBallScheme()) }

// theorem2TreeScheme is the (M, L) scheme wired to the centroid
// decomposition, the construction Corollary 1 relies on for trees.  The
// cache key distinguishes the decomposition even though both variants
// report as "theorem2".
func theorem2TreeScheme() scenario.SchemeRef {
	return scenario.SchemeRef{Key: "theorem2-tree", New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
		return augment.NewTheorem2Scheme(decomp.TreeCentroid), nil
	}}
}

// theorem2BFSScheme is the (M, L) scheme wired to the generic BFS-layer
// decomposition used on graphs with no special structure.
func theorem2BFSScheme() scenario.SchemeRef {
	return scenario.SchemeRef{Key: "theorem2-bfs", New: func(*scenario.BuiltGraph) (augment.Scheme, error) {
		return augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
			return decomp.BFSLayers(g, 0)
		}), nil
	}}
}
