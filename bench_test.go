// Package navaug's top-level benchmark harness: one benchmark per
// experiment (E1..E10), i.e. per table/figure-equivalent of the paper's
// claims, plus micro-benchmarks of the two core constructions.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the same code path as `navsim run
// -exp <id>` at a reduced scale (override with NAVAUG_BENCH_SCALE) and
// reports the headline measurement of the experiment as a custom metric so
// the paper-shape can be read straight from the benchmark output.
package navaug

import (
	"os"
	"strconv"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/decomp"
	"navaug/internal/dist"
	"navaug/internal/experiments"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/route"
	"navaug/internal/scenario"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

// benchScale returns the experiment size scale used by the benchmarks.
// The default keeps a full `go test -bench=.` run to a few minutes; set
// NAVAUG_BENCH_SCALE=1.0 to reproduce the EXPERIMENTS.md numbers exactly.
func benchScale() float64 {
	if v := os.Getenv("NAVAUG_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:  experiments.DefaultConfig().Seed,
		Scale: benchScale(),
	}
}

func benchmarkExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner := scenario.NewRunner(cfg)
		tables, err := runner.RunSpec(e)
		runner.Close()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

// BenchmarkE1UniformSqrtN regenerates the E1 sweep: uniform scheme greedy
// diameters across families with their ~n^0.5 fits.
func BenchmarkE1UniformSqrtN(b *testing.B) { benchmarkExperiment(b, "E1") }

// BenchmarkE2NameIndependentLowerBound regenerates the E2 table: identity vs
// adversarial labelings of matrix schemes on the path (Theorem 1).
func BenchmarkE2NameIndependentLowerBound(b *testing.B) { benchmarkExperiment(b, "E2") }

// BenchmarkE3TreesPolylog regenerates the E3 sweep: Theorem 2 scheme vs
// uniform on trees (Corollary 1, O(log³ n)).
func BenchmarkE3TreesPolylog(b *testing.B) { benchmarkExperiment(b, "E3") }

// BenchmarkE4ATFreePolylog regenerates the E4 sweep: Theorem 2 scheme vs
// uniform on interval graphs (Corollary 1, O(log² n)).
func BenchmarkE4ATFreePolylog(b *testing.B) { benchmarkExperiment(b, "E4") }

// BenchmarkE5Theorem2GeneralGraphs regenerates the E5 sweep: the O(√n)
// fallback of Theorem 2 on grids and sparse random graphs.
func BenchmarkE5Theorem2GeneralGraphs(b *testing.B) { benchmarkExperiment(b, "E5") }

// BenchmarkE6LabelSizeLowerBound regenerates the E6 sweep: compressed-label
// schemes on the path vs the Theorem 3 lower bound.
func BenchmarkE6LabelSizeLowerBound(b *testing.B) { benchmarkExperiment(b, "E6") }

// BenchmarkE7BallSchemeCubeRoot regenerates the E7 sweep: the Theorem 4 ball
// scheme's ~n^{1/3} scaling across families.
func BenchmarkE7BallSchemeCubeRoot(b *testing.B) { benchmarkExperiment(b, "E7") }

// BenchmarkE8BarrierCrossover regenerates the E8 table: uniform vs ball
// greedy diameters and the crossover sizes.
func BenchmarkE8BarrierCrossover(b *testing.B) { benchmarkExperiment(b, "E8") }

// BenchmarkE9KleinbergBaseline regenerates the E9 table: distance-harmonic
// baselines vs the ball scheme on paths and grids.
func BenchmarkE9KleinbergBaseline(b *testing.B) { benchmarkExperiment(b, "E9") }

// BenchmarkE10Ablations regenerates the E10 ablation tables for the
// Theorem 2 and Theorem 4 constructions.
func BenchmarkE10Ablations(b *testing.B) { benchmarkExperiment(b, "E10") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives that dominate experiment runtime.
// ---------------------------------------------------------------------------

// BenchmarkBallContactDraw measures a single Theorem 4 long-range contact
// draw (one bounded BFS plus a uniform pick) on a 256x256 grid.
func BenchmarkBallContactDraw(b *testing.B) {
	g := gen.Grid2D(256, 256)
	inst, err := augment.NewBallScheme().Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.N()))
		if c := inst.Contact(u, rng); int(c) >= g.N() {
			b.Fatal("bad contact")
		}
	}
}

// BenchmarkTheorem2ContactDraw measures a single (M, L) contact draw on a
// 65535-node binary tree (ancestor enumeration plus label lookup).
func BenchmarkTheorem2ContactDraw(b *testing.B) {
	g := gen.BinaryTree(65535)
	scheme := augment.NewTheorem2Scheme(decomp.TreeCentroid)
	inst, err := scheme.Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.N()))
		if c := inst.Contact(u, rng); int(c) >= g.N() {
			b.Fatal("bad contact")
		}
	}
}

// BenchmarkAPSP measures the parallel exact distance-matrix construction
// (the Theorem 2 default metric) on a 2304-node grid.
func BenchmarkAPSP(b *testing.B) {
	g := gen.Grid2D(48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := dist.NewAPSP(g)
		if a.Dist(0, graph.NodeID(g.N()-1)) != 94 {
			b.Fatal("bad corner distance")
		}
	}
}

// BenchmarkLandmarkOracle measures landmark-sketch construction (16
// farthest-point landmarks) on a 65536-node grid, the large-n fallback
// where the exact matrix stops being feasible.
func BenchmarkLandmarkOracle(b *testing.B) {
	g := gen.Grid2D(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := dist.NewLandmarkOracle(g, 16, xrand.New(1))
		if o.K() != 16 {
			b.Fatal("bad landmark count")
		}
	}
}

// BenchmarkTwoHopBuild measures construction of the exact 2-hop-cover
// oracle on a 16384-node preferential-attachment graph — the hub-dominated
// regime the labeling is designed for (E12 rides this to n = 2^20).
func BenchmarkTwoHopBuild(b *testing.B) {
	g := gen.PowerLawAttachment(16384, 2, xrand.New(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := dist.NewTwoHop(g)
		b.ReportMetric(o.AvgLabel(), "avg-label")
	}
}

// twoHopQueryMask sizes the pre-drawn query endpoints of the 2-hop query
// benchmarks.
const twoHopQueryMask = 1<<12 - 1

// twoHopQuerySetup builds the oracle above and pre-draws query endpoints
// so the timer sees only the queries.
func twoHopQuerySetup() (o *dist.TwoHop, us, vs []graph.NodeID) {
	g := gen.PowerLawAttachment(16384, 2, xrand.New(4))
	o = dist.NewTwoHop(g)
	rng := xrand.New(2)
	us = make([]graph.NodeID, twoHopQueryMask+1)
	vs = make([]graph.NodeID, twoHopQueryMask+1)
	for i := range us {
		us[i] = graph.NodeID(rng.Intn(g.N()))
		vs[i] = graph.NodeID(rng.Intn(g.N()))
	}
	return o, us, vs
}

// BenchmarkTwoHopQuery measures a single exact point-to-point query (one
// merged scan over two label streams, both decoded on the fly) against the
// oracle built above — the per-step cost greedy routing pays on
// unstructured graphs at large n when the target is not pinned.
func BenchmarkTwoHopQuery(b *testing.B) {
	o, us, vs := twoHopQuerySetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Dist(us[i&twoHopQueryMask], vs[i&twoHopQueryMask]) < 0 {
			b.Fatal("connected graph reported unreachable pair")
		}
	}
}

// twoHopPinEvery is how many pinned queries share one target: about a
// served route's worth of probes (~124 per /v1/route on the
// serve-route-hub workload, where greedy routing stops scanning a hop's
// neighbours at the first one closer to the target).
const twoHopPinEvery = 128

// BenchmarkTwoHopQuery_pinned is the query greedy routing actually makes:
// against a target-pinned view (one pass over L_u, the only label
// decoded), re-pinning every twoHopPinEvery queries as greedy routing does
// once per route; the re-pins are inside the timer.
func BenchmarkTwoHopQuery_pinned(b *testing.B) {
	o, us, vs := twoHopQuerySetup()
	var p dist.TwoHopPin
	var t graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%twoHopPinEvery == 0 {
			t = vs[(i/twoHopPinEvery)&twoHopQueryMask]
			p.Pin(o, t)
		}
		if p.Dist(us[i&twoHopQueryMask], t) < 0 {
			b.Fatal("connected graph reported unreachable pair")
		}
	}
}

// twoHopBatchPairs is the batch size of BenchmarkTwoHopDistBatch, that of
// the serve-dist-tree workload's POST /v1/dist bodies.
const twoHopBatchPairs = 256

// BenchmarkTwoHopDistBatch measures one exact query in a batch of random
// pairs on a 2^19-node powerlaw-tree, whose 4 MB label index and ~12 MB
// label blob are far beyond L2, as the serve-dist-tree workload serves
// it: a loop of Dist against DistBatch, which stages each group's label
// reads before it merges.  ns/op is per pair.  (BenchmarkTwoHopQuery's
// 16k-node oracle fits in cache and cannot show the staging.)
func BenchmarkTwoHopDistBatch(b *testing.B) {
	g := gen.PowerLawAttachment(1<<19, 1, xrand.New(1))
	o := dist.NewTwoHop(g)
	rng := xrand.New(2)
	pairs := make([][2]int32, 1<<20)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))}
	}
	out := make([]int32, twoHopBatchPairs)
	run := func(b *testing.B, batch func(ps [][2]int32)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += twoHopBatchPairs {
			at := i & (len(pairs) - 1)
			batch(pairs[at : at+min(twoHopBatchPairs, b.N-i)])
		}
	}
	b.Run("loop", func(b *testing.B) {
		run(b, func(ps [][2]int32) {
			for k, p := range ps {
				out[k] = o.Dist(p[0], p[1])
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		run(b, func(ps [][2]int32) { o.DistBatch(ps, out) })
	})
}

// BenchmarkLandmarkOracleQuery measures a single O(k) bound query against
// the oracle built above.
func BenchmarkLandmarkOracleQuery(b *testing.B) {
	g := gen.Grid2D(256, 256)
	o := dist.NewLandmarkOracle(g, 16, xrand.New(1))
	rng := xrand.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.N()))
		v := graph.NodeID(rng.Intn(g.N()))
		if o.Dist(u, v) < 0 {
			b.Fatal("grid pair reported unreachable")
		}
	}
}

// ---------------------------------------------------------------------------
// Contact micro-benchmarks: one steady-state long-range draw per iteration
// on the n=4096 mesh (64x64 grid).  These pin the Prepare-vs-Contact cost
// contract: Prepare may be heavy (it runs outside the timer), Contact must
// be O(1) amortised and allocation-free.
// ---------------------------------------------------------------------------

// sinkNode keeps the compiler from eliding the Contact calls.
var sinkNode graph.NodeID

func benchmarkContact(b *testing.B, scheme augment.Scheme, g *graph.Graph) {
	inst, err := scheme.Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	// Pre-draw the query nodes so the timer sees only Contact.
	const mask = 1<<10 - 1
	us := make([]graph.NodeID, mask+1)
	for i := range us {
		us[i] = graph.NodeID(rng.Intn(g.N()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = inst.Contact(us[i&mask], rng)
	}
}

func meshGraph() *graph.Graph { return gen.Grid2D(64, 64) }

func BenchmarkContact_uniform(b *testing.B) {
	benchmarkContact(b, augment.NewUniformScheme(), meshGraph())
}

// The harmonic and ball benchmarks prepare eagerly so the timer sees the
// steady-state O(1) draw, not the one-off lazy row builds.

func BenchmarkContact_harmonic(b *testing.B) {
	benchmarkContact(b, &augment.HarmonicScheme{Exponent: 2, EagerPrepare: true}, meshGraph())
}

func BenchmarkContact_harmonicR1(b *testing.B) {
	benchmarkContact(b, &augment.HarmonicScheme{Exponent: 1, EagerPrepare: true}, meshGraph())
}

func BenchmarkContact_theorem2(b *testing.B) {
	benchmarkContact(b, augment.NewTheorem2Scheme(func(g *graph.Graph) (*decomp.PathDecomposition, error) {
		return decomp.BFSLayers(g, 0)
	}), meshGraph())
}

func BenchmarkContact_ball(b *testing.B) {
	benchmarkContact(b, &augment.BallScheme{EagerPrepare: true}, meshGraph())
}

// BenchmarkLazyRowBuild measures one lazy alias-row build (fill plus table)
// of the ball and harmonic schemes on 4096-node graphs: each iteration
// first-draws a new row, and a fresh instance is prepared, off the clock,
// once every row of the last one is built.  ns/op and B/op are per row.
func BenchmarkLazyRowBuild(b *testing.B) {
	graphs := []*graph.Graph{meshGraph(), gen.RandomAttachmentTree(4096, xrand.New(1))}
	for _, scheme := range []augment.Scheme{augment.NewBallScheme(), augment.NewHarmonicScheme(2)} {
		for _, g := range graphs {
			b.Run(scheme.Name()+"/"+g.Name(), func(b *testing.B) {
				n := g.N()
				rng := xrand.New(1)
				var inst augment.Instance
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := i % n
					if u == 0 {
						b.StopTimer()
						var err error
						if inst, err = scheme.Prepare(g); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					sinkNode = inst.Contact(graph.NodeID(u), rng)
				}
			})
		}
	}
}

func BenchmarkContact_matrix(b *testing.B) {
	g := meshGraph()
	labels, err := augment.NewBlockLabels(g.N(), 512)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkContact(b, &augment.MatrixLabelingScheme{
		Matrix: augment.NewHarmonicMatrix(512),
		Labels: labels,
	}, g)
}

// BenchmarkRoutingTrial_harmonic measures one complete greedy routing trial
// (extremal pair of the n=4096 mesh) with a reused route.Scratch: the
// steady-state unit of Monte Carlo work, which must not allocate at all.
func BenchmarkRoutingTrial_harmonic(b *testing.B) {
	g := meshGraph()
	inst, err := (&augment.HarmonicScheme{Exponent: 2, EagerPrepare: true}).Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	s, t, _ := dist.ExtremalPair(g)
	// Hold the field as a dist.Source so interface boxing happens once, as
	// the engine does per pair, keeping the trial itself allocation-free.
	var d dist.Source = dist.NewField(g.BFS(t))
	scratch := route.NewScratch(g.N())
	rng := xrand.New(3)
	opts := route.Options{Scratch: scratch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := route.Greedy(g, inst, s, t, d, rng, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatal("trial hit the step cap")
		}
	}
}

// BenchmarkRoutingTrial_analyticSource routes the same trial shape through
// an analytic dist.Source (closed-form torus metric, O(1) memory per
// query) instead of a BFS field — the large-n hot path of E11.  Compare
// with BenchmarkRoutingTrial_fieldSource to see the interface-call
// overhead the O(1)-memory path trades for never materialising a field.
func BenchmarkRoutingTrial_analyticSource(b *testing.B) {
	g := gen.Torus2D(64, 64)
	metric := gen.Torus2DMetric(64, 64)
	inst, err := augment.NewAnalyticBall(metric).Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	s, t, _ := dist.ExtremalPair(g)
	scratch := route.NewScratch(g.N())
	rng := xrand.New(3)
	opts := route.Options{Scratch: scratch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := route.Greedy(g, inst, s, t, metric, rng, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatal("trial hit the step cap")
		}
	}
}

// BenchmarkRoutingTrial_fieldSource is the same trial against the wrapped
// BFS field, isolating the Source-vs-slice cost on identical routes.
func BenchmarkRoutingTrial_fieldSource(b *testing.B) {
	g := gen.Torus2D(64, 64)
	metric := gen.Torus2DMetric(64, 64)
	inst, err := augment.NewAnalyticBall(metric).Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	s, t, _ := dist.ExtremalPair(g)
	// Hold the field as a dist.Source so interface boxing happens once, as
	// the engine does per pair, keeping the trial itself allocation-free.
	var d dist.Source = dist.NewField(g.BFS(t))
	scratch := route.NewScratch(g.N())
	rng := xrand.New(3)
	opts := route.Options{Scratch: scratch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := route.Greedy(g, inst, s, t, d, rng, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatal("trial hit the step cap")
		}
	}
}

// BenchmarkRoutingTrial_twoHopSource routes through the exact 2-hop
// oracle on a 16384-node power-law graph with no analytic metric: the
// serve-route-hub hot path, where each route pins the oracle to its target
// in the reused scratch.  Pairs cycle through a pre-drawn set since one
// extremal pair is only a few hops apart.
func BenchmarkRoutingTrial_twoHopSource(b *testing.B) {
	g := gen.PowerLawAttachment(16384, 2, xrand.New(4))
	var o dist.Source = dist.NewTwoHop(g)
	inst, err := augment.NewUniformScheme().Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	const mask = 1<<8 - 1
	pairs := make([][2]graph.NodeID, mask+1)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N()))}
	}
	opts := route.Options{Scratch: route.NewScratch(g.N())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&mask]
		res, err := route.Greedy(g, inst, p[0], p[1], o, rng, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatal("trial hit the step cap")
		}
	}
}

// benchmarkEstimateEndToEnd measures a whole greedy-diameter estimation of
// the harmonic scheme on the n=4096 mesh at the sim default scale (16 pairs
// x 8 trials) — the macro path the Contact micro-benchmarks feed: Prepare
// once, then 128 routed walks.
func benchmarkEstimateEndToEnd(b *testing.B, scheme augment.Scheme) {
	g := meshGraph()
	e := sim.NewEngine(0)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := e.Estimate(g, scheme, sim.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(est.GreedyDiameter, "greedy-diam")
	}
}

func BenchmarkEstimate_EndToEnd(b *testing.B) {
	benchmarkEstimateEndToEnd(b, augment.NewHarmonicScheme(2))
}

// BenchmarkEstimate_EndToEnd_NoPrecompute pins the cost of the
// bounded-memory fallback path (one BFS + CDF scan per draw), which is what
// harmonic estimation degrades to above the precompute threshold — and,
// power-table aside, what every draw cost before the sampler subsystem.
func BenchmarkEstimate_EndToEnd_NoPrecompute(b *testing.B) {
	benchmarkEstimateEndToEnd(b, &augment.HarmonicScheme{Exponent: 2, MaxPrecomputeNodes: -1})
}

// BenchmarkGreedyDiameterEstimateBallGrid measures a full greedy-diameter
// estimation (the unit of work every experiment repeats) for the ball scheme
// on a 128x128 grid.
func BenchmarkGreedyDiameterEstimateBallGrid(b *testing.B) {
	g := gen.Grid2D(128, 128)
	e := sim.NewEngine(0)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := e.Estimate(g, augment.NewBallScheme(),
			sim.Config{Pairs: 8, Trials: 4, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(est.GreedyDiameter, "greedy-diam")
	}
}
