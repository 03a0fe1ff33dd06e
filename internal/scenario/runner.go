package scenario

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"navaug/internal/augment"
	"navaug/internal/churn"
	"navaug/internal/dist"
	"navaug/internal/graph/gen"
	"navaug/internal/report"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

// Runner executes scenarios on one persistent sim.Engine, building each
// graph, its distance-field cache, and each prepared scheme instance exactly
// once and sharing them across every cell — of any scenario — that measures
// the same instance.  Cells run concurrently (bounded by Config.Parallel);
// artefacts are released as soon as the last cell referencing them
// completes, so a full-suite run never pins more graphs than the scenarios
// still in flight need.
type Runner struct {
	cfg    Config
	engine *sim.Engine

	graphs  sync.Map // graph key -> *graphEntry
	streams sync.Map // stream key -> *streamEntry
	insts   sync.Map // instance key -> *instEntry

	refMu      sync.Mutex
	graphRefs  map[string]int
	streamRefs map[string]int
	instRefs   map[string]int

	progressMu sync.Mutex
	start      time.Time

	stats struct {
		graphsBuilt  atomic.Int64
		graphLookups atomic.Int64
		prepares     atomic.Int64
		instLookups  atomic.Int64
		cells        atomic.Int64
		trials       atomic.Int64
	}
}

// RunStats summarises the sharing a run achieved: how often a cell needed a
// graph or prepared scheme versus how often one actually had to be built.
type RunStats struct {
	GraphsBuilt  int64
	GraphLookups int64
	Prepares     int64
	InstLookups  int64
	Cells        int64
	Trials       int64
}

type graphEntry struct {
	once   sync.Once
	bg     *BuiltGraph
	fields *dist.FieldCache
	// source is the shared distance source the Oracle policy resolved for
	// this graph — an analytic metric or a 2-hop-cover oracle (nil when
	// the policy settled on per-target BFS fields); cells of this graph
	// steer by it instead of BFS fields when present.
	source dist.Source
	err    error
}

// streamEntry is the budget-independent half of a churn pipeline, shared
// by every budget cell of one (family, n, stream).
type streamEntry struct {
	once sync.Once
	st   *churn.Stream
	err  error
}

type instEntry struct {
	once sync.Once
	inst augment.Instance
	name string
	err  error
}

// NewRunner creates a runner (and its engine) for one configuration.
// Callers should Close it to release the worker pool.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.WithDefaults()
	return &Runner{
		cfg:        cfg,
		engine:     sim.NewEngine(cfg.Workers),
		graphRefs:  make(map[string]int),
		streamRefs: make(map[string]int),
		instRefs:   make(map[string]int),
		start:      time.Now(),
	}
}

// Close shuts the runner's engine down.
func (r *Runner) Close() { r.engine.Close() }

// Stats returns the sharing counters accumulated so far.
func (r *Runner) Stats() RunStats {
	return RunStats{
		GraphsBuilt:  r.stats.graphsBuilt.Load(),
		GraphLookups: r.stats.graphLookups.Load(),
		Prepares:     r.stats.prepares.Load(),
		InstLookups:  r.stats.instLookups.Load(),
		Cells:        r.stats.cells.Load(),
		Trials:       r.stats.trials.Load(),
	}
}

// SpecResult is the outcome of one spec in a run.
type SpecResult struct {
	Spec   Spec
	Tables []*report.Table
	Err    error
}

// RunSpec executes a single spec.
func (r *Runner) RunSpec(spec Spec) ([]*report.Table, error) {
	res := r.RunAll([]Spec{spec})
	return res[0].Tables, res[0].Err
}

// RunAll executes the given specs, interleaving their cells on the shared
// engine, and returns per-spec results in the given order.  A failing spec
// reports its error without aborting the others.
func (r *Runner) RunAll(specs []Spec) []SpecResult {
	out := make([]SpecResult, len(specs))
	cells := make([][]Cell, len(specs))
	total := 0
	for i, spec := range specs {
		out[i].Spec = spec
		cs, err := spec.Cells(r.cfg)
		if err != nil {
			out[i].Err = fmt.Errorf("%s: enumerating cells: %w", spec.ID, err)
			continue
		}
		cells[i] = cs
		total += len(cs)
		r.retain(cs)
	}

	parallel := r.cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, parallel)
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := range specs {
		if out[i].Err != nil || cells[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Tables, out[i].Err = r.runSpecCells(specs[i], cells[i], sem, &done, total)
		}(i)
	}
	wg.Wait()
	return out
}

// runSpecCells measures one spec's cells concurrently and renders them.
func (r *Runner) runSpecCells(spec Spec, cs []Cell, sem chan struct{}, done *atomic.Int64, total int) ([]*report.Table, error) {
	results := make([]CellResult, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for idx := range cs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cellStart := time.Now()
			est, aux, err := r.runCell(cs[idx])
			r.release(cs[idx])
			if err != nil {
				errs[idx] = err
				return
			}
			results[idx] = CellResult{Cell: cs[idx], Est: est, Aux: aux}
			r.progress(spec.ID, done.Add(1), int64(total), cs[idx], est, time.Since(cellStart))
		}(idx)
	}
	wg.Wait()
	// Report the first error in cell order so failures are deterministic.
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
	}
	return spec.Render(r.cfg, results)
}

// runCell resolves the cell's graph and prepared scheme through the shared
// caches and runs the estimation on the engine.  The second return is the
// graph's auxiliary artefact (the *churn.Result for churned graphs),
// surfaced to renderers through CellResult.Aux.
func (r *Runner) runCell(cell Cell) (*sim.Estimate, any, error) {
	gkey := graphKey(cell.Graph)
	bg, fields, source, err := r.builtGraph(gkey, cell.Graph)
	if err != nil {
		return nil, nil, err
	}
	inst, name, err := r.prepared(instKey(cell), cell, bg)
	if err != nil {
		return nil, nil, err
	}
	est, err := r.engine.EstimateInstance(bg.G, name, inst, r.cellSimConfig(gkey, cell, fields, source))
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", cell.Graph.Family, cell.Scheme.Key, err)
	}
	r.stats.cells.Add(1)
	r.stats.trials.Add(int64(est.Samples))
	return est, bg.Aux, nil
}

// cellSimConfig resolves the effective sampling budget of a cell: the cell's
// base pairs/trials, the Config overrides, and the precision target.  In
// adaptive mode the first batch is half the base trials (the target decides
// where between that floor and MaxTrials a pair actually stops).
func (r *Runner) cellSimConfig(gkey string, cell Cell, fields *dist.FieldCache, source dist.Source) sim.Config {
	pairs, trials := cell.Pairs, cell.Trials
	if r.cfg.Pairs > 0 {
		pairs = r.cfg.Pairs
	}
	if r.cfg.Trials > 0 {
		trials = r.cfg.Trials
	}
	if trials <= 0 {
		trials = 8
	}
	c := sim.Config{
		Pairs:               pairs,
		Trials:              trials,
		Seed:                r.cfg.Seed ^ hash64(gkey),
		FixedPairs:          cell.FixedPairs,
		IncludeExtremalPair: true,
		// A shared source (analytic metric or 2-hop oracle) replaces the
		// field cache entirely: O(1)-ish memory per distance query and no
		// per-target BFS.  Results are identical either way (every tier is
		// exact; see the disttest conformance suite).
		DistSource: source,
	}
	if source == nil {
		c.DistFields = fields
	}
	target := r.cfg.Precision
	if target == 0 {
		target = cell.Precision
	}
	if target > 0 {
		c.TargetCI = target
		c.Trials = (trials + 1) / 2
		if c.Trials < 2 {
			c.Trials = 2
		}
		c.MaxTrials = r.cfg.MaxTrials
		if c.MaxTrials <= 0 {
			c.MaxTrials = 8 * trials
		}
	}
	return c
}

// graphKey is the cache identity of a cell's graph artefacts: the built
// graph, its field cache and its distance source.  For a churned graph the
// full churn spec — budget included — is part of it: two cells differing
// only in repair budget measure different oracles.  The work the budgets
// have in common lives in one stream entry (streamKey), which each budget's
// graph entry replays.  The key also seeds the cell's pair sampling.
func graphKey(ref GraphRef) string {
	k := ref.Family + "#" + strconv.Itoa(ref.N)
	if ref.Churn != nil {
		k += "|churn:" + ref.Churn.Key()
	}
	return k
}

// streamKey is the cache identity of a churned graph's stream: family,
// size and the churn spec without its budget.
func streamKey(ref GraphRef) string {
	return ref.Family + "#" + strconv.Itoa(ref.N) + "|churn:" + ref.Churn.StreamKey()
}

// instKey is the cache identity of a cell's prepared instance.  A churned
// graph's frozen contact table depends on its stream alone, so every
// budget cell of the stream shares it.
func instKey(cell Cell) string {
	if cell.Graph.Churn != nil {
		return streamKey(cell.Graph) + "|" + cell.Scheme.Key
	}
	return graphKey(cell.Graph) + "|" + cell.Scheme.Key
}

// builtGraph returns the shared graph instance for a ref, building it at
// most once per run.  The builder RNG is derived from (seed, family, n)
// only, so the instance is identical no matter which cell arrives first.
func (r *Runner) builtGraph(gkey string, ref GraphRef) (*BuiltGraph, *dist.FieldCache, dist.Source, error) {
	r.stats.graphLookups.Add(1)
	v, _ := r.graphs.LoadOrStore(gkey, &graphEntry{})
	e := v.(*graphEntry)
	e.once.Do(func() {
		r.stats.graphsBuilt.Add(1)
		if ref.Churn != nil {
			// Churned graph: replay this cell's repair budget over the
			// shared stream.  The measured artefacts are the final compacted
			// graph, the repaired (possibly debt-carrying) oracle, and the
			// generation-stamped field cache; the base graph's analytic
			// metric no longer describes the churned edge set and is dropped.
			st, err := r.stream(ref)
			if err != nil {
				e.err = err
				return
			}
			res, err := st.Replay(ref.Churn.RepairBudget)
			if err != nil {
				e.err = fmt.Errorf("churning %s n=%d: %w", ref.Family, ref.N, err)
				return
			}
			e.bg = &BuiltGraph{G: res.Final, Aux: res}
			e.fields = res.Fields
			e.source = res.Oracle
			return
		}
		rng := xrand.New(GraphSeed(r.cfg.Seed, ref.Family, ref.N))
		bg, err := ref.Build(ref.N, rng)
		if err != nil {
			e.err = fmt.Errorf("building %s n=%d: %w", ref.Family, ref.N, err)
			return
		}
		e.bg = bg
		// Bounded per-graph cache: pair sets are seeded per graph, so the
		// same handful of targets recurs across every scheme and scenario
		// measuring this instance.  Lazy — graphs routed through a shared
		// source never compute a field.
		e.fields = dist.NewFieldCache(bg.G, 64)
		// Resolve the distance tier once per graph under the run's Oracle
		// policy: analytic metric, 2-hop-cover oracle, or nil for fields.
		metric := bg.Metric
		if metric == nil {
			if m, ok := gen.MetricFor(bg.G); ok {
				metric = m
			}
		}
		oracleStart := time.Now()
		e.source = r.cfg.Oracle.ResolveWith(bg.G, metric, r.cfg.Workers)
		if th, ok := e.source.(*dist.TwoHop); ok {
			r.oracleProgress(ref, th, time.Since(oracleStart))
		}
	})
	return e.bg, e.fields, e.source, e.err
}

// stream returns the shared churn stream of a churned ref, building the
// base graph and running the stream at most once per run.  The stream seed
// depends on the family, size and StreamKey only — NOT the repair budget —
// so every budget cell replays identical edges and dirty sets.
func (r *Runner) stream(ref GraphRef) (*churn.Stream, error) {
	v, _ := r.streams.LoadOrStore(streamKey(ref), &streamEntry{})
	e := v.(*streamEntry)
	e.once.Do(func() {
		bg, err := ref.Build(ref.N, xrand.New(GraphSeed(r.cfg.Seed, ref.Family, ref.N)))
		if err != nil {
			e.err = fmt.Errorf("building %s n=%d: %w", ref.Family, ref.N, err)
			return
		}
		cseed := GraphSeed(r.cfg.Seed, "churn|"+ref.Family+"|"+ref.Churn.StreamKey(), ref.N)
		if e.st, err = churn.NewStream(bg.G, cseed, *ref.Churn, r.cfg.Workers); err != nil {
			e.err = fmt.Errorf("churning %s n=%d: %w", ref.Family, ref.N, err)
		}
	})
	return e.st, e.err
}

// oracleProgress reports a built 2-hop oracle's cost on the progress
// stream: the one-off label build time and the label-size statistics that
// dominate its memory footprint.  (Progress is stderr-only diagnostics;
// report tables stay byte-identical across oracle policies.)
func (r *Runner) oracleProgress(ref GraphRef, th *dist.TwoHop, took time.Duration) {
	if r.cfg.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	fmt.Fprintf(r.cfg.Progress, "[oracle %6.1fs] %s n=%d: 2-hop labels built in %.2fs (avg %.1f, max %d, %.1f MB)\n",
		time.Since(r.start).Seconds(), ref.Family, ref.N, took.Seconds(),
		th.AvgLabel(), th.MaxLabel(), float64(th.MemoryBytes())/1e6)
}

// prepared returns the shared prepared instance under ikey (see instKey),
// preparing it at most once per run.
func (r *Runner) prepared(ikey string, cell Cell, bg *BuiltGraph) (augment.Instance, string, error) {
	r.stats.instLookups.Add(1)
	v, _ := r.insts.LoadOrStore(ikey, &instEntry{})
	e := v.(*instEntry)
	e.once.Do(func() {
		r.stats.prepares.Add(1)
		scheme, err := cell.Scheme.New(bg)
		if err != nil {
			e.err = fmt.Errorf("constructing scheme %s on %s: %w", cell.Scheme.Key, ikey, err)
			return
		}
		// Churned graphs route over the churn-maintained frozen contact
		// table: one draw over the pre-churn graph, then per-batch local
		// resampling of exactly the nodes the deltas dirtied.  The contacts
		// of clean nodes intentionally reflect the pre-churn distribution —
		// that residual mismatch is part of what churn cells measure.
		if res, ok := bg.Aux.(*churn.Result); ok {
			table, terr := churn.FrozenTable(res.Stream, scheme)
			if terr != nil {
				e.err = fmt.Errorf("freezing scheme %s on %s: %w", scheme.Name(), ikey, terr)
				return
			}
			e.inst = table
			e.name = scheme.Name()
			return
		}
		inst, err := scheme.Prepare(bg.G)
		if err != nil {
			e.err = fmt.Errorf("preparing scheme %s on %s: %w", scheme.Name(), ikey, err)
			return
		}
		e.inst = inst
		e.name = scheme.Name()
	})
	return e.inst, e.name, e.err
}

// retain records that each of the given cells will need its graph, stream
// and prepared instance, so release can evict artefacts as soon as the last
// referencing cell finishes.
func (r *Runner) retain(cs []Cell) {
	r.refMu.Lock()
	defer r.refMu.Unlock()
	for _, c := range cs {
		r.graphRefs[graphKey(c.Graph)]++
		if c.Graph.Churn != nil {
			r.streamRefs[streamKey(c.Graph)]++
		}
		r.instRefs[instKey(c)]++
	}
}

// release drops one reference from a finished cell and evicts cache entries
// nobody else will use, keeping a long multi-scenario run's memory bounded
// by the scenarios still in flight.
func (r *Runner) release(c Cell) {
	r.refMu.Lock()
	defer r.refMu.Unlock()
	if ik := instKey(c); decRef(r.instRefs, ik) {
		r.insts.Delete(ik)
	}
	if gk := graphKey(c.Graph); decRef(r.graphRefs, gk) {
		r.graphs.Delete(gk)
	}
	if c.Graph.Churn != nil {
		if sk := streamKey(c.Graph); decRef(r.streamRefs, sk) {
			r.streams.Delete(sk)
		}
	}
}

// decRef drops one reference to key and reports whether it was the last.
func decRef(refs map[string]int, key string) bool {
	if refs[key]--; refs[key] > 0 {
		return false
	}
	delete(refs, key)
	return true
}

// progress emits one line per completed cell to the configured writer.
func (r *Runner) progress(specID string, done, total int64, cell Cell, est *sim.Estimate, took time.Duration) {
	if r.cfg.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	fmt.Fprintf(r.cfg.Progress, "[%3d/%d %6.1fs] %s %s n=%d %s: gd=%.1f trials=%d in %.1fs\n",
		done, total, time.Since(r.start).Seconds(), specID,
		cell.Graph.Family, est.N, est.Scheme, est.GreedyDiameter, est.Samples, took.Seconds())
}
