package route

import (
	"reflect"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

// opaque hides a source's concrete type, so routing cannot pin it.
type opaque struct{ src dist.Source }

func (o opaque) Dist(u, t graph.NodeID) int32 { return o.src.Dist(u, t) }

// counting records how many probes a route makes.
type counting struct {
	src    dist.Source
	probes int
}

func (c *counting) Dist(u, t graph.NodeID) int32 {
	c.probes++
	return c.src.Dist(u, t)
}

type router func(*graph.Graph, augment.Instance, graph.NodeID, graph.NodeID, dist.Source, *xrand.RNG, Options) (Result, error)

var routers = map[string]router{"greedy": Greedy, "lookahead": GreedyWithLookahead}

// comparePinned routes pairs over o with the pinned scratch and over the
// opaque wrapper with a fresh-per-route scratch, under identical RNG
// streams, and requires identical traced results and errors.
func comparePinned(t *testing.T, g *graph.Graph, inst augment.Instance, o *dist.TwoHop, pinned *Scratch, seed uint64, pairs int) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; i < pairs; i++ {
		s, tgt := graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N()))
		for name, run := range routers {
			got, gerr := run(g, inst, s, tgt, o, xrand.New(seed+uint64(i)), Options{Trace: true, Scratch: pinned})
			want, werr := run(g, inst, s, tgt, opaque{o}, xrand.New(seed+uint64(i)), Options{Trace: true})
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s %d->%d: pinned error %v, unpinned %v", name, s, tgt, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %d->%d: pinned route %+v, unpinned %+v", name, s, tgt, got, want)
			}
		}
	}
}

// TestPinnedRoutesMatchUnpinned pins the route-level contract: routing over
// a *dist.TwoHop (pinned to each target in the scratch) takes exactly the
// paths it takes over the same oracle behind a wrapper that hides it, on
// raw and packed labels, across pairs, seeds and schemes — including a
// disconnected graph whose unreachable pairs must error the same way.
func TestPinnedRoutesMatchUnpinned(t *testing.T) {
	rng := xrand.New(0x91)
	graphs := []*graph.Graph{
		gen.PowerLawAttachment(600, 2, rng),
		gen.WattsStrogatz(400, 2, 0.1, rng),
		gen.GNP(300, 1.5/300, rng),
	}
	schemes := []augment.Scheme{augment.NewUniformScheme(), augment.NewBallScheme()}
	for _, g := range graphs {
		for _, sc := range schemes {
			inst, err := sc.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, packed := range []bool{false, true} {
				o := dist.NewTwoHopWith(g, dist.TwoHopOptions{Packed: packed})
				pinned := NewScratch(g.N())
				for seed := uint64(1); seed <= 3; seed++ {
					comparePinned(t, g, inst, o, pinned, seed*1000, 40)
				}
			}
		}
	}
}

// TestPinnedScratchAcrossOracles reuses one scratch across two different
// oracles with the same node count, as sim.Engine does (it keys scratches
// by n alone): each route must see only its own oracle's target label.
func TestPinnedScratchAcrossOracles(t *testing.T) {
	rng := xrand.New(0x92)
	g1, g2 := gen.PowerLawAttachment(500, 2, rng), gen.WattsStrogatz(500, 3, 0.2, rng)
	o1 := dist.NewTwoHop(g1)
	o2 := dist.NewTwoHopWith(g2, dist.TwoHopOptions{Packed: true})
	i1, _ := augment.NewUniformScheme().Prepare(g1)
	i2, _ := augment.NewUniformScheme().Prepare(g2)
	shared := NewScratch(500)
	for seed := uint64(1); seed <= 6; seed++ {
		comparePinned(t, g1, i1, o1, shared, seed, 5)
		comparePinned(t, g2, i2, o2, shared, seed, 5)
	}
}

// TestGreedyProbesEachNodeOnce pins the probe budget: dist(cur, t) is
// carried from the previous hop (or validation) instead of re-probed, and
// the lookahead reuses the neighbour distances of the direct step.  On a
// 50-node path without augmentation, validation asks Dist(t,t) and
// Dist(s,t), then each hop probes cur's neighbours (1 + 2·48 in total),
// and the lookahead additionally each neighbour's contact — itself.
func TestGreedyProbesEachNodeOnce(t *testing.T) {
	g := gen.Path(50)
	inst, _ := augment.NewNoAugmentation().Prepare(g)
	for name, want := range map[string]int{"greedy": 2 + 97, "lookahead": 2 + 2*97} {
		c := &counting{src: distTo(g, 49)}
		res, err := routers[name](g, inst, 0, 49, c, xrand.New(1), Options{})
		if err != nil || res.Steps != 49 {
			t.Fatalf("%s: %+v, %v", name, res, err)
		}
		if c.probes != want {
			t.Fatalf("%s: %d probes, want %d", name, c.probes, want)
		}
	}
}

// referenceRoute is the routing rule with every distance probed afresh at
// the point it is used: the specification the carried distances of Greedy
// and GreedyWithLookahead must reproduce hop for hop.
func referenceRoute(g *graph.Graph, inst augment.Instance, s, t graph.NodeID, src dist.Source, rng *xrand.RNG, lookahead bool) Result {
	memo := map[graph.NodeID]graph.NodeID{}
	contact := func(u graph.NodeID) graph.NodeID {
		c, ok := memo[u]
		if !ok {
			c = inst.Contact(u, rng)
			memo[u] = c
		}
		return c
	}
	res := Result{Path: []graph.NodeID{s}}
	for cur := s; cur != t; {
		best, viaLong := cur, false
		for _, v := range g.Neighbors(cur) {
			if d := src.Dist(v, t); d != graph.Unreachable &&
				(d < src.Dist(best, t) || (d == src.Dist(best, t) && v < best)) {
				best = v
			}
		}
		if c := contact(cur); c != cur {
			if d := src.Dist(c, t); d != graph.Unreachable && d < src.Dist(best, t) {
				best, viaLong = c, true
			}
		}
		if lookahead {
			bestVia, bestViaDist := graph.NodeID(-1), int32(-1)
			for _, v := range g.Neighbors(cur) {
				if src.Dist(v, t) == graph.Unreachable {
					continue
				}
				if d := src.Dist(contact(v), t); d != graph.Unreachable && (bestVia == -1 || d < bestViaDist) {
					bestVia, bestViaDist = v, d
				}
			}
			if bestVia != -1 && bestViaDist < src.Dist(best, t) && bestViaDist < src.Dist(cur, t) {
				best, viaLong = bestVia, false
			}
		}
		if best == cur {
			return res
		}
		if viaLong {
			res.LongLinksUsed++
		}
		cur = best
		res.Steps++
		res.Path = append(res.Path, cur)
	}
	res.Reached = true
	return res
}

// TestRoutesMatchReference checks both routing variants against
// referenceRoute over exact sources (BFS fields, pinned 2-hop labels) and
// approximate landmark bounds, whose plateaus and missing bounds exercise
// the stuck and unreachable branches.
func TestRoutesMatchReference(t *testing.T) {
	rng := xrand.New(0x93)
	g := gen.PowerLawAttachment(400, 2, rng)
	o := dist.NewTwoHopWith(g, dist.TwoHopOptions{Packed: true})
	lm := dist.NewLandmarkOracle(g, 6, xrand.New(3))
	scratch := NewScratch(g.N())
	for _, sc := range []augment.Scheme{augment.NewUniformScheme(), augment.NewBallScheme()} {
		inst, err := sc.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			s, tgt := graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N()))
			for _, src := range []dist.Source{o, lm, distTo(g, tgt)} {
				for name, run := range routers {
					seed := uint64(i) + 1
					got, err := run(g, inst, s, tgt, src, xrand.New(seed), Options{Trace: true, Scratch: scratch})
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceRoute(g, inst, s, tgt, src, xrand.New(seed), name == "lookahead"); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %T %d->%d: %+v, reference %+v", name, src, s, tgt, got, want)
					}
				}
			}
		}
	}
}
