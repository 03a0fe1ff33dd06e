package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/route"
	"navaug/internal/stats"
	"navaug/internal/xrand"
)

// Engine is a persistent Monte Carlo engine: a worker pool whose workers
// own reusable routing scratch, shared across many estimations.  One engine
// can serve several concurrent Estimate calls (the scenario runner submits
// cells from multiple scenarios at once); results are deterministic for a
// fixed Config regardless of the worker count or of what else runs on the
// pool, because every pair derives its RNG stream from the seed and the
// pair index alone and the batch schedule depends only on the pair's own
// trial results.
type Engine struct {
	workers   int
	tasks     chan engineTask
	wg        sync.WaitGroup
	closeOnce sync.Once
}

type engineTask struct {
	run  func(*workerState)
	done *sync.WaitGroup
}

// workerState is the per-worker reusable state: one routing Scratch per
// graph size this worker has routed on, so steady-state trials allocate
// nothing even when estimations over different graphs interleave.  The map
// is capped so a long-lived engine never retains more than a handful of
// O(n) scratches per worker; eviction picks an arbitrary entry — scratch
// identity never affects results.
type workerState struct {
	scratches map[int]*route.Scratch
}

const maxWorkerScratches = 8

func (ws *workerState) scratchFor(n int) *route.Scratch {
	s, ok := ws.scratches[n]
	if !ok {
		if len(ws.scratches) >= maxWorkerScratches {
			for k := range ws.scratches {
				delete(ws.scratches, k)
				break
			}
		}
		s = route.NewScratch(n)
		ws.scratches[n] = s
	}
	return s
}

// NewEngine starts an engine with the given pool size (<= 0 means
// GOMAXPROCS).  Callers that are done with the engine should Close it to
// release the workers.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, tasks: make(chan engineTask)}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			ws := &workerState{scratches: make(map[int]*route.Scratch)}
			for t := range e.tasks {
				t.run(ws)
				t.done.Done()
			}
		}()
	}
	return e
}

// Close shuts the worker pool down.  Close is idempotent; an engine must
// not be used after Close.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.tasks)
		e.wg.Wait()
	})
}

// pairState carries one pair's streaming estimation state across batches.
// Exactly one task touches a pairState per round, so no locking is needed;
// the round barrier publishes it to the scheduling goroutine.
type pairState struct {
	pair Pair
	rng  *xrand.RNG
	// src answers distance-to-target queries for this pair: the run's
	// shared analytic source when one is configured, otherwise the pair's
	// BFS field wrapped as a dist.Field on first use.
	src dist.Source
	// distST is dist(source, target), recorded when src is resolved.
	distST      int32
	steps       []float64
	longLinks   float64
	failed      int
	attempts    int
	unreachable bool
	done        bool
	err         error
}

// Estimate prepares scheme on g and runs the Monte Carlo estimation on this
// engine's pool.
func (e *Engine) Estimate(g *graph.Graph, scheme augment.Scheme, cfg Config) (*Estimate, error) {
	inst, err := scheme.Prepare(g)
	if err != nil {
		return nil, fmt.Errorf("sim: preparing scheme %s: %w", scheme.Name(), err)
	}
	return e.EstimateInstance(g, scheme.Name(), inst, cfg)
}

// EstimateInstance runs the Monte Carlo estimation for an already-prepared
// augmentation instance.  This is the entry point the scenario runner uses
// so that a scheme prepared once on a graph is shared by every scenario
// measuring that (graph, scheme) cell.
//
// In fixed-budget mode (Config.TargetCI == 0) every pair runs exactly
// Config.Trials trials.  In adaptive mode (TargetCI > 0) trials run in
// deterministic batches — Config.Trials at first, then doubling — until the
// 95% CI half-width of the pair's mean step count drops to
// TargetCI·max(1, mean) or the pair reaches Config.MaxTrials.
func (e *Engine) EstimateInstance(g *graph.Graph, schemeName string, inst augment.Instance, cfg Config) (*Estimate, error) {
	cfg = cfg.withDefaults()
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("sim: graph must have at least 2 nodes, got %d", n)
	}
	pairs, err := selectPairs(g, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DistSource == nil && cfg.DistFields == nil && cfg.Policy != "" {
		// Resolve the distance tier for this one estimation the way the
		// scenario runner does per graph; nil means BFS fields below.
		metric, _ := gen.MetricFor(g)
		cfg.DistSource = cfg.Policy.ResolveWith(g, metric, e.workers)
	}
	var fields *dist.FieldCache
	if cfg.DistSource == nil {
		fields = cfg.DistFields
		if fields == nil {
			// A private per-run cache: bounded near the worker count because
			// each pair fetches its field once and holds it for all trials, so
			// keeping more than the concurrently-active fields would only pin
			// memory.
			fields = dist.NewFieldCache(g, e.workers+1)
		} else if fields.Graph() != g {
			return nil, fmt.Errorf("sim: Config.DistFields was built over a different graph")
		}
	}

	adaptive := cfg.TargetCI > 0
	maxTrials := cfg.MaxTrials
	if maxTrials <= 0 {
		maxTrials = 32 * cfg.Trials
	}
	states := make([]*pairState, len(pairs))
	for i, p := range pairs {
		states[i] = &pairState{
			pair: p,
			// Deterministic per-pair stream: independent of worker scheduling,
			// continued across batches so the adaptive schedule never forks it.
			rng:   xrand.New(cfg.Seed + 0x9e3779b97f4a7c15*uint64(i+1)),
			steps: make([]float64, 0, cfg.Trials),
		}
	}

	batch := cfg.Trials
	for {
		var done sync.WaitGroup
		scheduled := 0
		for _, st := range states {
			if st.done {
				continue
			}
			b := batch
			if adaptive && st.attempts+b > maxTrials {
				b = maxTrials - st.attempts
			}
			if b <= 0 {
				st.done = true
				continue
			}
			st := st
			done.Add(1)
			scheduled++
			e.tasks <- engineTask{done: &done, run: func(ws *workerState) {
				runBatch(g, inst, st, b, cfg, fields, ws.scratchFor(n))
			}}
		}
		if scheduled == 0 {
			break
		}
		done.Wait()
		// Propagate the error of the lowest-indexed failing pair so the
		// reported error does not depend on worker scheduling.
		for _, st := range states {
			if st.err != nil {
				return nil, st.err
			}
		}
		if !adaptive {
			break
		}
		for _, st := range states {
			if st.done {
				continue
			}
			if st.attempts >= maxTrials || pairConverged(st, cfg.TargetCI) {
				st.done = true
			}
		}
		batch *= 2
	}

	est := &Estimate{
		Scheme:    schemeName,
		GraphName: g.Name(),
		N:         n,
		M:         g.M(),
		PairStats: make([]PairStats, len(states)),
		Adaptive:  adaptive,
		TargetCI:  cfg.TargetCI,
	}
	pairMeans := make([]float64, 0, len(states))
	var longLinks float64
	var routed int
	for i, st := range states {
		ps := PairStats{
			Pair:        st.pair,
			Dist:        st.distST,
			Steps:       stats.NewSummary(st.steps),
			Failed:      st.failed,
			Unreachable: st.unreachable,
		}
		if len(st.steps) > 0 {
			ps.MeanLongLinks = st.longLinks / float64(len(st.steps))
		}
		est.PairStats[i] = ps
		if st.unreachable {
			// No trials ran; the pair is reported in the unreachable count
			// and excluded from every mean (a zero-step "route" between
			// components would drag the estimates toward fiction).
			est.Unreachable++
			continue
		}
		est.Samples += st.attempts
		routed += len(st.steps)
		if ps.Steps.Mean > est.GreedyDiameter {
			est.GreedyDiameter = ps.Steps.Mean
		}
		longLinks += st.longLinks
		pairMeans = append(pairMeans, ps.Steps.Mean)
	}
	// The grand mean and its CI are computed over per-pair means (pairs get
	// uniform weight even when the adaptive schedule gave them different
	// trial counts — the estimand is the same per-pair mean either way).
	grand := stats.NewSummary(pairMeans)
	est.MeanSteps = grand.Mean
	est.CI95 = grand.CI95()
	if routed > 0 {
		est.MeanLongLinks = longLinks / float64(routed)
	}
	return est, nil
}

// pairConverged reports whether a pair's mean step count is known tightly
// enough: the 95% CI half-width is within targetCI·max(1, mean).  At least
// two successful trials are required before a pair may converge.
func pairConverged(st *pairState, targetCI float64) bool {
	if len(st.steps) < 2 {
		return false
	}
	s := stats.NewSummary(st.steps)
	return s.CI95() <= targetCI*math.Max(1, s.Mean)
}

// runBatch executes b routing trials of one pair, continuing the pair's own
// RNG stream, and folds the outcomes into its state.
func runBatch(g *graph.Graph, inst augment.Instance, st *pairState, b int, cfg Config, fields *dist.FieldCache, scratch *route.Scratch) {
	if st.src == nil {
		// Resolve the pair's distance source once: the run-wide analytic
		// source when configured (O(1) memory, no field), otherwise this
		// target's BFS field from the shared cache.
		if cfg.DistSource != nil {
			st.src = cfg.DistSource
		} else {
			st.src = dist.NewField(fields.Field(st.pair.Target))
		}
		st.distST = st.src.Dist(st.pair.Source, st.pair.Target)
		if st.distST == graph.Unreachable {
			// Disconnected pair: routing is undefined, so the pair runs no
			// trials and is *counted*, not errored — churn legitimately cuts
			// graphs apart, and spinning against MaxSteps or silently
			// resampling would both misreport it (internal/graph/ops.go).
			st.unreachable = true
			st.done = true
			return
		}
	}
	opts := route.Options{Scratch: scratch}
	for trial := 0; trial < b; trial++ {
		res, err := route.Greedy(g, inst, st.pair.Source, st.pair.Target, st.src, st.rng, opts)
		if err != nil {
			st.err = err
			st.done = true
			return
		}
		st.attempts++
		if !res.Reached {
			st.failed++
			continue
		}
		st.steps = append(st.steps, float64(res.Steps))
		st.longLinks += float64(res.LongLinksUsed)
	}
}
