package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"navaug/internal/core"
	"navaug/internal/experiments"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/xrand"
)

// suiteSpec is the reproduction workload.  The operation is a pass over
// the experiments, each run at one scale the way
// `navsim run -exp <id> -scale <scale>` runs it, through core.RunSuite;
// passes repeat for the run's seconds.  The set-up generates every input
// graph of the suite through the experiments' own builders.  Toy runs take
// the toy experiments instead.
type suiteSpec struct {
	ids, toy []string
	scale    float64
}

// golden holds the SHA-256 of the JSON report of each experiment at the
// default seed, keyed by id@scale: the output of
// `navsim run -exp <id> -scale <scale> -format json` on amd64.  The
// determinism contract makes these bytes identical on every run.
var golden = map[string]string{
	"E1@0.05":  "2659215bd27804dbcfd6deacf90d2ac6ffe92a0ef63f5567e232cb4e7c78ccd3",
	"E2@0.05":  "79db2b253aceda405f36d82ffedd915d057a91e8dc8144db4bbd0eae412860b6",
	"E3@0.05":  "e9a5e162950e7042824874539f9b1a7bfc6fece8454f31fa316fd885936d0fbc",
	"E4@0.05":  "8487e16134d0bd6e03f01a547203eeb3512130d4f0068c57039b03755bdf9752",
	"E5@0.05":  "0c39241e2afdd56c6fb0f8311ee8e8cb2d63ae768049c16fa170c47bba529f6e",
	"E6@0.05":  "e9a72181f3a8296c791231a9ce00aaf44022329e5f42087472ca58c706ebdc9d",
	"E7@0.05":  "5411adc9fad77ba7a1923d4247cbed0f75ab4a778bc1feeabb62fac0c8da2d1b",
	"E8@0.05":  "0840fb958b6b785e73ea537092849b4fc941ba22dab469999beb4564823b1365",
	"E9@0.05":  "9d05f085c9484ea074545ddd3d35c99cb67724c4c24a472efca7d7934e1a3678",
	"E10@0.05": "15b4cc82a2619e5f7daf21a35f117e7e00ebe821c9499e07ae3f1cbf526ec347",
	"E13@0.05": "5544be717a43d37bfd7e7f128dba2e53b82d481d255d26c948b8b520bf976018",
}

func (ss *suiteSpec) config(w *worker) scenario.Config {
	return scenario.Config{Seed: w.seed, Scale: ss.scale, Workers: 2, Parallel: 2}.WithDefaults()
}

func (ss *suiteSpec) measure(w *worker) error {
	ids, cfg := ss.ids, ss.config(w)
	if w.toy {
		ids = ss.toy
	}
	g := newGauge()
	var setups []scaled
	for start := time.Now(); w.moreSetUps(len(setups), start); {
		settle()
		g.read()
		tm := w.tr.begin("setup", w.root)
		if err := ss.buildInputs(cfg, ids, w.tr, tm.id); err != nil {
			return err
		}
		setups = append(setups, scaled{tm.end(), g.lap()})
	}
	w.res.setScaled("setup_s", median(refSecs(setups)), median(wallSecs(setups)))
	w.res.set("graph.build_s", median(wallSecs(setups)))

	// Passes run every experiment once, until the seconds are used.  The
	// operation is a pass: ops_per_s is passes per second spent in them,
	// p50_ms and p99_ms the median and nearest-rank p99 pass.  Each
	// experiment is timed between two readings of the core speed, and a
	// pass takes the sum of its experiments' times.
	lat := make(map[string][]time.Duration)
	var passes []scaled
	hashes := make(map[string]string)
	m := readMeter()
	for start := time.Now(); len(passes) == 0 || time.Since(start) < w.seconds; {
		var ref, wall float64
		for _, id := range ids {
			settle()
			g.read()
			tm := w.tr.begin("core.RunSuite", w.root)
			rep, err := core.RunSuite([]string{id}, cfg)
			d := tm.end()
			f := g.lap()
			lat[id] = append(lat[id], d)
			ref, wall = ref+d.Seconds()*f, wall+d.Seconds()
			var buf bytes.Buffer
			if err == nil {
				err = rep.WriteJSON(&buf)
			}
			if err == nil {
				err = checkReport(w, id, ss.scale, rep.Experiments, buf.Bytes(), hashes)
			}
			w.res.ops(1, 0)
			if err != nil {
				w.res.problem("%s: %v", id, err)
				w.res.ops(0, 1)
			}
		}
		passes = append(passes, scaled{time.Duration(wall * 1e9), ref / wall})
	}
	var cost meter
	cost.add(m)
	cost.report(w.res, float64(len(passes)))
	reportOps(w, passes)
	for _, id := range ids {
		w.res.set("scenario."+id+"_s", median(secs(lat[id])))
	}
	if w.tr == nil {
		return nil
	}

	// Runner counts, traced runs only: one more pass through
	// scenario.Runner, which core.RunSuite wraps, to read its Stats.
	var trials, graphs, prepares, cells int64
	var runS float64
	for _, id := range ids {
		spec, _ := experiments.ByID(id) // RunSuite above already resolved it
		settle()
		r := scenario.NewRunner(cfg)
		tm := w.tr.begin("scenario.Runner.RunSpec", w.root)
		_, err := r.RunSpec(spec)
		runS += tm.end().Seconds()
		st := r.Stats()
		r.Close()
		if err != nil {
			return err
		}
		trials, graphs, prepares, cells = trials+st.Trials, graphs+st.GraphsBuilt, prepares+st.Prepares, cells+st.Cells
	}
	w.res.set("sim.trials", float64(trials))
	w.res.set("sim.trials_per_s", float64(trials)/runS)
	w.res.set("scenario.graphs_built", float64(graphs))
	w.res.set("scenario.prepares", float64(prepares))
	w.res.set("scenario.cells", float64(cells))
	return nil
}

// buildInputs generates each distinct graph the experiments' cells
// reference, with the seed the scenario runner derives for it.
func (ss *suiteSpec) buildInputs(cfg scenario.Config, ids []string, tr *tracer, parent int64) error {
	seen := make(map[string]bool)
	for _, id := range ids {
		spec, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %s", id)
		}
		cells, err := spec.Cells(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, cell := range cells {
			ref := cell.Graph
			key := ref.Family + "#" + strconv.Itoa(ref.N)
			if seen[key] {
				continue
			}
			seen[key] = true
			tm := tr.begin("graph.build", parent)
			_, err := ref.Build(ref.N, xrand.New(scenario.GraphSeed(cfg.Seed, ref.Family, ref.N)))
			tm.end()
			if err != nil {
				return fmt.Errorf("%s: building %s: %w", id, key, err)
			}
		}
	}
	return nil
}

// checkReport is the suite's correctness gate: the experiment ran without
// error, every table has rows, every pass prints the same bytes, and at the
// default seed on amd64 the bytes hash to the golden value.
func checkReport(w *worker, id string, scale float64, exps []report.ExperimentResult, doc []byte, hashes map[string]string) error {
	if len(exps) != 1 {
		return fmt.Errorf("report has %d experiments", len(exps))
	}
	if e := exps[0]; e.Error != "" {
		return fmt.Errorf("experiment error: %s", e.Error)
	}
	if len(exps[0].Tables) == 0 {
		return fmt.Errorf("no tables")
	}
	for _, t := range exps[0].Tables {
		if len(t.Rows) == 0 {
			return fmt.Errorf("table %q has no rows", t.Title)
		}
	}
	sum := sha256.Sum256(doc)
	h := hex.EncodeToString(sum[:])
	if prev, ok := hashes[id]; ok && prev != h {
		return fmt.Errorf("report changed between passes (%s, then %s)", prev, h)
	}
	hashes[id] = h
	if w.seed != w.wl.seed || runtime.GOARCH != "amd64" {
		return nil
	}
	key := id + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
	if want := golden[key]; want != h {
		return fmt.Errorf("report hash %s, golden %q for %s", h, want, key)
	}
	return nil
}
