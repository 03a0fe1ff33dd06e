package core

import (
	"fmt"
	"io"
	"time"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph/gen"
	"navaug/internal/scenario"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// SnapshotOptions configures BuildSnapshot.
type SnapshotOptions struct {
	// Family and N name the graph instance (see GraphByName).
	Family string
	N      int
	// Seed is the run seed; the graph is built with the exact per-(family,
	// n) derivation a scenario run at this seed uses (scenario.GraphSeed),
	// so the snapshot freezes the same instance `navsim run` measures.
	Seed uint64
	// Schemes are the augmentation schemes to prepare and freeze
	// (SchemeByName names); empty means ["ball"].
	Schemes []string
	// Draws is the number of frozen full contact tables per scheme
	// (default 1).  Serving picks a table per request via the draw
	// parameter.
	Draws int
	// Oracle picks which O(1) distance tier the snapshot packs.  It reuses
	// dist.SourcePolicy with one serving-minded deviation: under
	// PolicyAuto a metric-less graph gets a 2-hop build at the auto label
	// budget at *every* size, not only above dist.TwoHopAutoMinNodes — a
	// snapshot is built once and served many times, so the build is worth
	// it even where a single estimation run would prefer BFS fields.  A
	// budget-aborted build leaves the snapshot with no O(1) tier (the
	// serve layer then falls back to a bounded per-target field cache).
	Oracle dist.SourcePolicy
	// Progress, when non-nil, receives one line per build stage.
	Progress io.Writer
}

// SnapshotBuildStats records where a snapshot build spent its time — the
// rebuild cost a loaded snapshot avoids.
type SnapshotBuildStats struct {
	GraphBuild     time.Duration
	OracleBuild    time.Duration
	SchemesPrepare time.Duration
}

// Rebuild is the total one-off cost the snapshot amortises away.
func (s *SnapshotBuildStats) Rebuild() time.Duration {
	return s.GraphBuild + s.OracleBuild + s.SchemesPrepare
}

// BuildSnapshot builds every artefact a `navsim serve` instance needs —
// graph, O(1) distance tier, frozen augmentation tables — and packs them
// into a Snapshot.  It is the write side of the routing-as-a-service
// pipeline: everything heavy happens here, exactly once, so that loading
// the snapshot is pure validation.
func BuildSnapshot(opts SnapshotOptions) (*snapshot.Snapshot, *SnapshotBuildStats, error) {
	if opts.N < 2 {
		return nil, nil, fmt.Errorf("core: snapshot graph needs n >= 2, got %d", opts.N)
	}
	if opts.Draws <= 0 {
		opts.Draws = 1
	}
	if opts.Draws > snapshot.MaxDraws {
		return nil, nil, fmt.Errorf("core: %d draws exceed the snapshot cap %d", opts.Draws, snapshot.MaxDraws)
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = []string{"ball"}
	}
	if opts.Oracle == "" {
		opts.Oracle = dist.PolicyAuto
	}
	progress := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "[snapshot] "+format+"\n", args...)
		}
	}
	stats := &SnapshotBuildStats{}

	start := time.Now()
	g, err := GraphByName(opts.Family, opts.N, scenario.GraphSeed(opts.Seed, opts.Family, opts.N))
	if err != nil {
		return nil, nil, err
	}
	stats.GraphBuild = time.Since(start)
	progress("built %v in %.2fs", g, stats.GraphBuild.Seconds())

	metric, hasMetric := gen.MetricFor(g)
	var th *dist.TwoHop
	start = time.Now()
	switch opts.Oracle {
	case dist.PolicyField:
		// Pack no O(1) tier; serve falls back to BFS fields.
	case dist.PolicyAnalytic:
		if !hasMetric {
			return nil, nil, fmt.Errorf("core: family %s has no analytic metric to pack (oracle %q)", opts.Family, opts.Oracle)
		}
	case dist.PolicyTwoHop, dist.PolicyTwoHopPacked:
		th = dist.NewTwoHop(g)
	case dist.PolicyAuto:
		if !hasMetric {
			th = dist.NewTwoHopWith(g, dist.TwoHopOptions{MaxAvgLabel: dist.TwoHopAutoMaxAvgLabel})
			if th == nil {
				progress("2-hop build aborted at the %g avg-label budget; packing no O(1) tier", float64(dist.TwoHopAutoMaxAvgLabel))
			}
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown oracle policy %q", opts.Oracle)
	}
	stats.OracleBuild = time.Since(start)
	if th != nil {
		progress("2-hop labels built in %.2fs (avg %.1f, max %d, %.1f MB)",
			stats.OracleBuild.Seconds(), th.AvgLabel(), th.MaxLabel(), float64(th.MemoryBytes())/1e6)
	} else if hasMetric && opts.Oracle != dist.PolicyField {
		progress("analytic metric %q packed (no label build needed)", g.Name())
	}

	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Tool:          "navsim",
			FormatVersion: snapshot.FormatVersion,
			Family:        opts.Family,
			N:             g.N(),
			M:             g.M(),
			Seed:          opts.Seed,
			Oracle:        string(opts.Oracle),
		},
		Graph:  g,
		TwoHop: th,
	}
	if hasMetric && opts.Oracle != dist.PolicyField {
		snap.MetricName = g.Name()
		snap.Metric = metric
	}

	start = time.Now()
	for _, name := range opts.Schemes {
		scheme, err := SchemeByName(name)
		if err != nil {
			return nil, nil, err
		}
		inst, err := scheme.Prepare(g)
		if err != nil {
			return nil, nil, fmt.Errorf("core: preparing scheme %s for snapshot: %w", scheme.Name(), err)
		}
		// Per-(scheme, draw) seed stream, derived from the run seed and
		// stable identifiers only, so the frozen tables are reproducible.
		base := opts.Seed ^ scenario.Hash64("snapshot|"+scheme.Name())
		table := snapshot.SchemeTable{Name: scheme.Name(), Seed: base}
		for k := 0; k < opts.Draws; k++ {
			rng := xrand.New(base + uint64(k)*0x9e3779b97f4a7c15)
			table.Draws = append(table.Draws, augment.SampleAll(inst, g.N(), rng))
		}
		snap.Schemes = append(snap.Schemes, table)
		progress("froze scheme %s (%d draw(s))", scheme.Name(), opts.Draws)
	}
	stats.SchemesPrepare = time.Since(start)
	return snap, stats, nil
}
