package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph/gen"
	"navaug/internal/snapshot"
)

func runSnapshot(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "", "graph family ("+strings.Join(gen.Families(), ", ")+")")
	n := fs.Int("n", 0, "approximate graph size")
	seed := fs.Uint64("seed", 1, "run seed (the graph matches a `navsim run` at this seed)")
	schemes := fs.String("scheme", "ball", "comma-separated augmentation schemes to freeze")
	draws := fs.Int("draws", 1, "frozen full contact tables per scheme")
	oracle := fs.String("oracle", "auto", "distance tier to pack: auto, analytic, twohop (twohop-packed is a synonym) or field (field packs none)")
	out := fs.String("o", "", "output .navsnap path (required)")
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
	// end, and times the load path against the rebuild.
	start = time.Now()
	loaded, err := snapshot.ReadFile(*out)
	if err != nil {
		return fmt.Errorf("verifying written snapshot: %w", err)
	}
	loadTime := time.Since(start)
	if loaded.Graph.N() != snap.Graph.N() || loaded.Graph.M() != snap.Graph.M() {
		return fmt.Errorf("verifying written snapshot: reloaded graph %v does not match built %v", loaded.Graph, snap.Graph)
	}

	rebuild := stats.Rebuild().Seconds()
	speedup := 0.0
	if loadTime > 0 {
		speedup = rebuild / loadTime.Seconds()
	}
	fmt.Printf("wrote %s: %v, %d bytes, oracle %s\n", *out, snap.Graph, info.Size(), string(policy))
	fmt.Printf("build %.2fs (graph %.2fs, oracle %.2fs, schemes %.2fs), write %.3fs, load+verify %.3fs (%.0fx faster than rebuild)\n",
		rebuild, stats.GraphBuild.Seconds(), stats.OracleBuild.Seconds(), stats.SchemesPrepare.Seconds(),
		writeTime.Seconds(), loadTime.Seconds(), speedup)
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
