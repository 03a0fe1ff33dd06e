// Package sim is the Monte Carlo engine that estimates greedy diameters of
// augmented graphs.  It samples source/target pairs, redraws the
// augmentation several times per pair, routes greedily, and aggregates the
// step counts into an Estimate.
//
// The one entry point is the persistent Engine (see engine.go): a reusable
// worker pool that serves many estimations — fixed-budget or
// streaming/adaptive — and can be shared by concurrently-running scenarios.
// Results never depend on the pool size because every (pair, trial) block
// derives its RNG stream from the seed and the pair index alone, never from
// worker scheduling.
package sim

import (
	"fmt"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/stats"
	"navaug/internal/xrand"
)

// Pair is a source/target pair for routing.
type Pair struct {
	Source, Target graph.NodeID
}

// Config tunes an estimation run.
type Config struct {
	// Pairs is the number of source/target pairs to sample (default 16).
	// With two or more, the first is a two-sweep (approximately diametral)
	// pair, which sharpens the greedy-diameter estimate since the diameter
	// is a maximum over pairs.  When FixedPairs is non-empty it is ignored.
	Pairs int
	// Trials is the number of independent augmentation draws (and routings)
	// per pair (default 8).  In adaptive mode (TargetCI > 0) it is the size
	// of the first batch and the minimum per-pair budget.
	Trials int
	// Seed drives all sampling; runs with equal seeds produce equal results.
	Seed uint64
	// FixedPairs, when non-empty, replaces random pair sampling entirely.
	FixedPairs []Pair
	// DistSource, when non-nil, supplies O(1) point-to-point distances for
	// greedy routing (an analytic closed-form metric of a structured graph
	// family, see gen.MetricFor).  It takes precedence over DistFields and
	// avoids materialising any per-target distance field, so memory per
	// query stays O(1) even at n >= 10^6.  The source must agree with BFS
	// hop distances on the graph; results are identical either way.
	DistSource dist.Source
	// DistFields, when non-nil, supplies the per-target distance fields
	// greedy routing steers by.  It must be a cache over the same graph.
	// When nil (and DistSource is nil) a private cache is created per
	// estimation run; the scenario runner shares one cache per graph, so
	// each target's BFS is paid once rather than once per scheme.  Fields
	// are deterministic, so sharing never affects results.
	DistFields *dist.FieldCache
	// Policy resolves the distance source when neither DistSource nor
	// DistFields is supplied: the engine applies it to the graph (looking
	// up the family's analytic metric via gen.MetricFor) exactly as the
	// scenario runner does, so single estimations honour the same -oracle
	// knob (the label build runs on the engine's pool size).  Empty keeps the legacy behaviour (per-target BFS
	// fields).  The policy never affects results, only cost: every tier
	// answers exact BFS distances.
	Policy dist.SourcePolicy
	// TargetCI, when positive, switches the run to streaming adaptive
	// estimation: each pair keeps running deterministic trial batches until
	// the 95% CI half-width of its mean step count is at most
	// TargetCI·max(1, mean), or the pair has spent MaxTrials trials.
	TargetCI float64
	// MaxTrials caps the per-pair budget in adaptive mode
	// (default 32·Trials).  Ignored in fixed-budget mode.
	MaxTrials int
}

func (c Config) withDefaults() Config {
	if c.Pairs <= 0 {
		c.Pairs = 16
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	return c
}

// PairStats aggregates the routing trials of one source/target pair.
type PairStats struct {
	Pair          Pair
	Dist          int32 // graph distance between the endpoints
	Steps         stats.Summary
	MeanLongLinks float64
	Failed        int // trials that hit the step cap (should be zero)
	// Unreachable marks a pair whose target is in a different component
	// (Dist == graph.Unreachable).  Such pairs run no trials and are
	// reported, never silently resampled and never an error: disconnection
	// is an expected outcome on churned graphs (see the contract in
	// internal/graph/ops.go).
	Unreachable bool
}

// Estimate is the outcome of a greedy-diameter estimation.
type Estimate struct {
	Scheme    string
	GraphName string
	N, M      int
	PairStats []PairStats
	// MeanSteps is the grand mean over per-pair means.
	MeanSteps float64
	// GreedyDiameter is the Monte Carlo estimate of diam(G, φ): the maximum
	// over sampled pairs of the per-pair mean number of steps.
	GreedyDiameter float64
	// CI95 is the half-width of the 95% confidence interval of MeanSteps.
	CI95 float64
	// MeanLongLinks is the average number of long-range hops per route.
	MeanLongLinks float64
	// Samples is the total number of routed trials across all pairs.
	Samples int
	// Unreachable counts sampled pairs whose endpoints are disconnected.
	// They contribute to no mean: routing is only defined within a
	// component, and the count itself is the degradation signal.
	Unreachable int
	// Adaptive records whether the streaming adaptive schedule was used,
	// and TargetCI the relative CI target it ran against.
	Adaptive bool
	TargetCI float64
}

// selectPairs picks the source/target pairs for an estimation run.
func selectPairs(g *graph.Graph, cfg Config) ([]Pair, error) {
	if len(cfg.FixedPairs) > 0 {
		for _, p := range cfg.FixedPairs {
			if int(p.Source) < 0 || int(p.Source) >= g.N() || int(p.Target) < 0 || int(p.Target) >= g.N() {
				return nil, fmt.Errorf("sim: fixed pair (%d,%d) out of range", p.Source, p.Target)
			}
		}
		return append([]Pair(nil), cfg.FixedPairs...), nil
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed5eed5eed5eed)
	pairs := make([]Pair, 0, cfg.Pairs)
	if cfg.Pairs >= 2 {
		s, t, _ := dist.ExtremalPair(g)
		pairs = append(pairs, Pair{Source: s, Target: t})
	}
	const maxResample = 64
	for len(pairs) < cfg.Pairs {
		var p Pair
		ok := false
		for attempt := 0; attempt < maxResample; attempt++ {
			s := graph.NodeID(rng.Intn(g.N()))
			t := graph.NodeID(rng.Intn(g.N()))
			if s == t {
				continue
			}
			p = Pair{Source: s, Target: t}
			ok = true
			break
		}
		if !ok {
			return nil, fmt.Errorf("sim: could not sample distinct source/target pairs")
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}
