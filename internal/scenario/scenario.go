// Package scenario is the declarative experiment layer of the repository.
//
// A Spec describes one scenario — which graphs to build (family × sizes),
// which augmentation schemes to measure on them, how precisely, and how to
// render the measurements into report tables.  Specs are plain values (the
// paper experiments E1..E13 are listed by internal/experiments) executed by
// a Runner, which shares every expensive artefact — built graphs, analytic
// distance metrics or per-target distance fields, prepared scheme
// instances — across all cells of all scenarios that measure the same
// instance, and runs cells concurrently on one persistent sim.Engine.
//
// Determinism contract: for a fixed Config (seed, scale, precision, pair and
// trial overrides) the produced tables are byte-identical regardless of
// Config.Workers, Config.Parallel, or how cell execution interleaves.
// Every random choice is derived from the seed plus stable identifiers
// (family name, size, pair index), never from scheduling.
package scenario

import (
	"fmt"
	"io"

	"navaug/internal/augment"
	"navaug/internal/churn"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/report"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

// Config controls how heavy a scenario run is.
type Config struct {
	// Seed drives every random choice; equal seeds give equal tables.
	Seed uint64
	// Scale multiplies the spec sweep sizes; 1.0 reproduces the numbers
	// recorded in EXPERIMENTS.md, smaller values give quicker smoke runs.
	Scale float64
	// Workers is the sim.Engine worker-pool size (0 = GOMAXPROCS).
	// It never affects results.
	Workers int
	// Parallel bounds how many scenario cells run concurrently
	// (0 = GOMAXPROCS).  It never affects results.
	Parallel int
	// Pairs and Trials override the per-cell defaults when positive.
	Pairs  int
	Trials int
	// Precision, when positive, switches estimation to the streaming
	// adaptive mode: each pair keeps running trial batches until the 95% CI
	// half-width of its mean step count is at most Precision·max(1, mean)
	// or the MaxTrials cap.  When negative, adaptive mode is disabled even
	// for cells that declare their own precision target.
	Precision float64
	// MaxTrials caps the per-pair budget in adaptive mode
	// (default 8× the cell's base trials).
	MaxTrials int
	// Oracle picks the distance-source tier cells steer by: auto (analytic
	// metric, else a 2-hop-cover oracle above dist.TwoHopAutoMinNodes with
	// a bounded label budget, else BFS fields), analytic, twohop or field.
	// Estimates are identical under every policy (all tiers are exact and
	// pinned to BFS by the disttest conformance suite), so the policy only
	// trades build time, query time and memory — the CI determinism smoke
	// compares the tiers byte-for-byte.  Empty means PolicyAuto.
	Oracle dist.SourcePolicy
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultConfig is the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: 20070610, Scale: 1.0}
}

// WithDefaults fills the zero fields that have non-zero defaults.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = DefaultConfig().Seed
	}
	if c.Oracle == "" {
		c.Oracle = dist.PolicyAuto
	}
	return c
}

// ScaleSizes multiplies the base sweep sizes by the config scale, keeping
// them at least 64 and strictly increasing.
func (c Config) ScaleSizes(base ...int) []int {
	c = c.WithDefaults()
	out := make([]int, 0, len(base))
	for _, n := range base {
		v := int(float64(n) * c.Scale)
		if v < 64 {
			v = 64
		}
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// BuiltGraph is a constructed graph plus whatever auxiliary artefact its
// builder wants to hand to scheme constructors (e.g. the interval model a
// random interval graph was drawn from).
type BuiltGraph struct {
	G   *graph.Graph
	Aux any
	// Metric, when non-nil, is the graph's closed-form analytic distance
	// metric (dist.Source).  The runner then routes this graph's cells
	// through it instead of BFS distance fields — O(1) memory per query,
	// which is what the large-n mode (E11) relies on.  Named sets it from
	// gen.MetricFor; a graph built with it nil has no analytic tier.
	Metric dist.Source
}

// GraphRef names one graph instance declaratively.  (Family, N) is the
// cache identity: two cells — in the same or different scenarios — that
// reference the same (Family, N) share one built graph, one distance-field
// cache, and one prepared instance per scheme.  Build receives an RNG
// derived from the run seed, Family and N only, so the instance is the same
// no matter which cell builds it first.
type GraphRef struct {
	Family string
	N      int
	Build  func(n int, rng *xrand.RNG) (*BuiltGraph, error)
	// Churn, when non-nil, runs the built graph through a churn pipeline
	// (internal/churn) before any cell measures it: the cell then routes on
	// the churned (final) graph, steered by the incrementally repaired
	// DynTwoHop oracle — whose budget-bounded staleness is part of what the
	// cell measures.  The churn spec (budget included) joins the graph
	// cache identity, so cells differing only in budget measure separate
	// oracles.  The delta stream is seeded from Spec.StreamKey and is
	// therefore identical across budgets: the runner computes it once per
	// (Family, N, StreamKey) — dirty sets, labels, final graph and frozen
	// contact tables — and each budget only replays its repair over it.
	// The churn.Result is handed to the spec's renderer via CellResult.Aux.
	Churn *churn.Spec
}

// SchemeRef names one augmentation scheme declaratively.  Key is the cache
// identity within a graph instance; New may inspect the built graph (for
// schemes bound to a per-instance artefact such as a clique-path
// decomposition).
type SchemeRef struct {
	Key string
	New func(bg *BuiltGraph) (augment.Scheme, error)
}

// Scheme wraps an already-constructed scheme into a SchemeRef keyed by its
// name.
func Scheme(s augment.Scheme) SchemeRef {
	return SchemeRef{Key: s.Name(), New: func(*BuiltGraph) (augment.Scheme, error) { return s, nil }}
}

// Cell is one measurement request: estimate the greedy diameter of one
// scheme on one graph instance with the given sampling budget.
type Cell struct {
	Graph  GraphRef
	Scheme SchemeRef
	// Pairs and Trials are the cell's base budget (subject to the Config
	// overrides; zero falls back to the sim defaults).
	Pairs  int
	Trials int
	// Precision is the cell's own adaptive CI target, used when the Config
	// does not set one.
	Precision float64
	// FixedPairs, when non-empty, replaces pair sampling (e.g. the
	// adversarial pair of the Theorem 1 construction).
	FixedPairs []sim.Pair
	// Tag and Data are opaque annotations carried through to the CellResult
	// for the spec's Render function.
	Tag  string
	Data any
}

// CellResult pairs a cell with its estimate.  Aux carries the graph's
// auxiliary pipeline artefact when one exists — for churned graphs the
// *churn.Result, so renderers can report repair debt and connectivity next
// to the routing estimates.
type CellResult struct {
	Cell Cell
	Est  *sim.Estimate
	Aux  any
}

// Spec is one scenario: an identifier, the cells to measure, and
// the rendering of their results into tables.
type Spec struct {
	// ID is the short identifier used by the CLI and benchmarks (e.g. "E7").
	ID string
	// Title is a one-line description.
	Title string
	// Claim states the paper result being reproduced and the expected shape.
	Claim string
	// CellsFn enumerates the measurement cells for a config.  The runner
	// calls it once per run; the returned order is the order CellResults are
	// handed to RenderFn.
	CellsFn func(cfg Config) ([]Cell, error)
	// RenderFn turns the measured cells into report tables.
	RenderFn func(cfg Config, res []CellResult) ([]*report.Table, error)
}

// Cells enumerates the spec's measurement cells.
func (s Spec) Cells(cfg Config) ([]Cell, error) {
	if s.CellsFn == nil {
		return nil, fmt.Errorf("scenario: spec %s has no cells", s.ID)
	}
	return s.CellsFn(cfg)
}

// Render turns measured cells into tables.
func (s Spec) Render(cfg Config, res []CellResult) ([]*report.Table, error) {
	if s.RenderFn == nil {
		return nil, fmt.Errorf("scenario: spec %s has no renderer", s.ID)
	}
	return s.RenderFn(cfg, res)
}

// hash64 produces a stable FNV-1a hash for deriving per-family seeds.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Hash64 exposes the stable string hash used for seed derivation, for specs
// that need their own seed streams (e.g. per-(n, matrix) labelings).
func Hash64(s string) uint64 { return hash64(s) }

// GraphSeed derives the deterministic builder seed a run with the given
// run seed uses for the (family, n) graph instance.  It is exported so
// out-of-band builders — the snapshot writer in particular — seed
// gen.ByName exactly as a live run at that seed does.  Since every spec
// builds a gen family through Named, which calls the same gen.ByName, a
// snapshot of (family, n, seed) holds the very graph a run at that seed
// measures.
func GraphSeed(seed uint64, family string, n int) uint64 {
	return seed ^ hash64(family) ^ (uint64(n)+1)*0x9e3779b97f4a7c15
}
