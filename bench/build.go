package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

// buildSpec is the snapshot-build workload.  The operation is what
// `navsim snapshot` does before its check: core.BuildSnapshot and
// WriteFile, repeated for the run's seconds.  Each build takes the next
// seed of a sequence the run seed starts, so that a run's median build
// spans many graphs rather than one graph's label sizes.  The set-up is
// bringing a server up on the last snapshot written, which is where work
// moved out of the build into loading would show.
type buildSpec struct {
	family string
	n      int
	oracle dist.SourcePolicy
}

func (bs *buildSpec) measure(w *worker) error {
	n := bs.n
	if w.toy {
		n = toyN
	}
	opts := core.SnapshotOptions{Family: bs.family, N: n, Schemes: []string{"uniform"}, Oracle: bs.oracle}
	seeds := xrand.New(w.seed)
	var builds, writes []time.Duration
	var ops []scaled
	var built *snapshot.Snapshot
	g := newGauge()
	m := readMeter()
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < w.seconds {
		built, opts.Seed = nil, seeds.Uint64()
		settle()
		g.read()
		op := w.tr.begin("op.build", w.root)
		step := w.tr.begin("core.BuildSnapshot", op.id)
		snap, _, err := core.BuildSnapshot(opts)
		builds = append(builds, step.end())
		if err != nil {
			return err
		}
		step = w.tr.begin("snapshot.WriteFile", op.id)
		err = snap.WriteFile(w.snapPath())
		writes = append(writes, step.end())
		ops = append(ops, scaled{op.end(), g.lap()})
		if err != nil {
			return err
		}
		built = snap
	}
	var cost meter
	cost.add(m)
	cost.report(w.res, float64(len(ops)))
	w.res.ops(int64(len(ops)), 0)
	reportOps(w, ops)
	w.res.set("build_s", median(secs(builds)))
	w.res.set("snapshot.write_s", median(secs(writes)))

	c := newClient()
	defer c.CloseIdleConnections()
	l, loads, err := setUp(w, c, g)
	if err != nil {
		return err
	}
	defer l.stop(c)
	for range 2 {
		tm := w.tr.begin("snapshot.ReadFile", w.root)
		_, err := snapshot.ReadFile(w.snapPath())
		loads = append(loads, tm.end())
		if err != nil {
			return err
		}
	}
	w.res.set("snapshot.load_s", median(secs(loads)))

	w.res.ops(1, 0)
	if err := sameSnapshot(built, l.snap); err != nil {
		w.res.problem("reload gate: %v", err)
		w.res.ops(0, 1)
	}
	keys := xrand.New(w.seed ^ 0x6a09e667f3bcc909)
	gateDist(w, c, l.base, l.snap.Graph, keys, 8, 32)
	if w.tr == nil {
		return nil
	}

	if err := graphBuild(w, bs.family, n, opts.Seed); err != nil {
		return err
	}
	tm := w.tr.begin("dist.NewTwoHopWith", w.root)
	dist.NewTwoHopWith(l.snap.Graph, dist.TwoHopOptions{Packed: true})
	w.res.set("dist.twohop_build_s", tm.end().Seconds())
	tm = w.tr.begin("snapshot.Bytes", w.root)
	_, err = built.Bytes()
	w.res.set("snapshot.encode_s", tm.end().Seconds())
	if err != nil {
		return err
	}
	if err := snapshotLayers(w, l.snap); err != nil {
		return err
	}
	probeLayers(w, l.snap, randomPairs(keys, n, 1<<16))
	return nil
}

// sameSnapshot checks that a reloaded snapshot holds exactly the graph and
// 2-hop label arrays that were built.
func sameSnapshot(built, loaded *snapshot.Snapshot) error {
	a, b := built.Graph, loaded.Graph
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Errorf("graph n=%d m=%d reloaded as n=%d m=%d", a.N(), a.M(), b.N(), b.M())
	}
	ao, aa := a.RawCSR()
	bo, ba := b.RawCSR()
	if !slices.Equal(ao, bo) || !slices.Equal(aa, ba) {
		return fmt.Errorf("graph adjacency differs after reload")
	}
	x, y := built.TwoHop, loaded.TwoHop
	if x == nil || y == nil || !x.Packed() || !y.Packed() {
		return fmt.Errorf("expected packed 2-hop labels on both sides")
	}
	xo, xp, xb := x.RawPacked()
	yo, yp, yb := y.RawPacked()
	if !slices.Equal(xo, yo) || !slices.Equal(xp, yp) || !bytes.Equal(xb, yb) {
		return fmt.Errorf("2-hop label arrays differ after reload")
	}
	return nil
}
