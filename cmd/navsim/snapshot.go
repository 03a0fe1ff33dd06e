package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/snapshot"
)

// snapshotBenchRecord is the BENCH_serve.json entry one snapshot build
// emits: the one-off build cost next to the load cost it amortises away.
type snapshotBenchRecord struct {
	Family          string   `json:"family"`
	N               int      `json:"n"`
	M               int      `json:"m"`
	Seed            uint64   `json:"seed"`
	Oracle          string   `json:"oracle"`
	Schemes         []string `json:"schemes"`
	Draws           int      `json:"draws"`
	Bytes           int64    `json:"bytes"`
	BuildGraphS     float64  `json:"build_graph_s"`
	BuildOracleS    float64  `json:"build_oracle_s"`
	PrepareSchemesS float64  `json:"prepare_schemes_s"`
	RebuildS        float64  `json:"rebuild_s"`
	WriteS          float64  `json:"write_s"`
	LoadS           float64  `json:"load_s"`
	LoadVsRebuild   float64  `json:"speedup_load_vs_rebuild"`
	TwoHopAvgLabel  float64  `json:"twohop_avg_label,omitempty"`
	TwoHopMaxLabel  int      `json:"twohop_max_label,omitempty"`
}

func runSnapshot(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "", "graph family ("+strings.Join(core.GraphFamilies(), ", ")+")")
	n := fs.Int("n", 0, "approximate graph size")
	seed := fs.Uint64("seed", 1, "run seed (the graph matches a `navsim run` at this seed)")
	schemes := fs.String("scheme", "ball", "comma-separated augmentation schemes to freeze")
	draws := fs.Int("draws", 1, "frozen full contact tables per scheme")
	oracle := fs.String("oracle", "auto", "distance tier to pack: auto, analytic, twohop (twohop-packed is a synonym) or field (field packs none)")
	out := fs.String("o", "", "output .navsnap path (required)")
	benchOut := fs.String("bench-out", "", "append a build/load timing record to this JSON bench file")
	quiet := fs.Bool("quiet", false, "suppress build progress on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *family == "" || *n <= 0 || *out == "" {
		fs.Usage()
		return fmt.Errorf("snapshot requires -family, -n and -o")
	}
	policy, err := dist.ParseSourcePolicy(*oracle)
	if err != nil {
		return err
	}
	opts := core.SnapshotOptions{
		Family:  *family,
		N:       *n,
		Seed:    *seed,
		Schemes: splitTrim(*schemes),
		Draws:   *draws,
		Oracle:  policy,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	snap, stats, err := core.BuildSnapshot(opts)
	if err != nil {
		return err
	}

	start := time.Now()
	if err := snap.WriteFile(*out); err != nil {
		return err
	}
	writeTime := time.Since(start)
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}

	// Always reload what was written: it verifies every checksum end to
	// end, and times the load path the bench record reports.
	start = time.Now()
	loaded, err := snapshot.ReadFile(*out)
	if err != nil {
		return fmt.Errorf("verifying written snapshot: %w", err)
	}
	loadTime := time.Since(start)
	if loaded.Graph.N() != snap.Graph.N() || loaded.Graph.M() != snap.Graph.M() {
		return fmt.Errorf("verifying written snapshot: reloaded graph %v does not match built %v", loaded.Graph, snap.Graph)
	}

	rec := snapshotBenchRecord{
		Family:          opts.Family,
		N:               snap.Graph.N(),
		M:               snap.Graph.M(),
		Seed:            opts.Seed,
		Oracle:          string(policy),
		Schemes:         opts.Schemes,
		Draws:           opts.Draws,
		Bytes:           info.Size(),
		BuildGraphS:     stats.GraphBuild.Seconds(),
		BuildOracleS:    stats.OracleBuild.Seconds(),
		PrepareSchemesS: stats.SchemesPrepare.Seconds(),
		RebuildS:        stats.Rebuild().Seconds(),
		WriteS:          writeTime.Seconds(),
		LoadS:           loadTime.Seconds(),
		TwoHopAvgLabel:  stats.TwoHopAvgLabel,
		TwoHopMaxLabel:  stats.TwoHopMaxLabel,
	}
	if loadTime > 0 {
		rec.LoadVsRebuild = stats.Rebuild().Seconds() / loadTime.Seconds()
	}
	fmt.Printf("wrote %s: %v, %d bytes, oracle %s\n", *out, snap.Graph, info.Size(), string(policy))
	fmt.Printf("build %.2fs (graph %.2fs, oracle %.2fs, schemes %.2fs), write %.3fs, load+verify %.3fs (%.0fx faster than rebuild)\n",
		rec.RebuildS, rec.BuildGraphS, rec.BuildOracleS, rec.PrepareSchemesS, rec.WriteS, rec.LoadS, rec.LoadVsRebuild)
	if *benchOut != "" {
		if err := appendBenchRecord(*benchOut, "snapshots", rec); err != nil {
			return err
		}
	}
	return nil
}

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
