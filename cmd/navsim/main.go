// Command navsim is the one command-line entry point of the library.  It
// runs the paper-reproduction experiments (E1..E13, including the E11
// large-n mode that sweeps million-node tori and hypercubes through
// analytic O(1) distance oracles, the E12 universality sweep that reaches
// million-node unstructured graphs through the exact 2-hop-cover oracle,
// and the E13 churn experiment that routes on dynamic graphs maintained by
// incremental 2-hop label repair under a per-batch budget), ad-hoc
// greedy-diameter estimations, graph generation (`graph`) and hop-by-hop
// route traces (`trace`), and the routing-as-a-service mode: `snapshot`
// freezes built oracles and augmentation tables into a .navsnap file,
// `serve` answers distance and routing queries over HTTP from such a file
// with no rebuild, and `loadgen` benchmarks a running server.
//
// Run `navsim <command> -h` for any command's flags; `navsim help` lists
// the commands.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/exact"
	"navaug/internal/experiments"
	"navaug/internal/graph/gen"
	"navaug/internal/scenario"
	"navaug/internal/sim"
)

// command is one navsim subcommand.  Every command registers its flags on
// the FlagSet newFlagSet builds from this struct, so registration, -h
// output and the global help all render from the same table.
type command struct {
	name     string
	synopsis string // one-line flag sketch for the command list
	summary  string // one-sentence description
	run      func(c *command, args []string) error
}

var commands = []*command{
	{
		name:     "list",
		synopsis: "[-format text|md]",
		summary:  "List the available experiments with their claims (md generates EXPERIMENTS.md).",
		run:      runList,
	},
	{
		name: "run",
		synopsis: "[-exp E1,E7] [-scale 1.0] [-seed N] [-format text|csv|md|json] [-precision 0.1]\n" +
			"               [-workers N] [-parallel N] [-pairs N] [-trials N] [-max-trials N]\n" +
			"               [-oracle auto|analytic|twohop|field] [-quiet]",
		summary: "Run the selected experiments (default: all) and print the report.",
		run:     runExperiments,
	},
	{
		name: "estimate",
		synopsis: "-family grid -n 4096 -scheme ball [-pairs 12] [-trials 6] [-precision 0.1]\n" +
			"               [-seed N] [-workers N] [-oracle auto|analytic|twohop|field]",
		summary: "Estimate the greedy diameter of one (family, scheme) combination.",
		run:     runEstimate,
	},
	{
		name:     "exact",
		synopsis: "-family path -n 400 -scheme uniform [-seed N]",
		summary:  "Compute the exact greedy diameter (no sampling) for small instances.",
		run:      runExact,
	},
	{
		name:     "graph",
		synopsis: "[-family grid] [-n 1024] [-seed 1] [-dot] [-o out.graph] | -families",
		summary:  "Generate a graph of a built-in family as an edge list or Graphviz DOT; print a summary to stderr.",
		run:      runGraph,
	},
	{
		name:     "trace",
		synopsis: "[-family grid] [-n 1024] [-scheme ball] [-s 0 -t 1023] [-seed 7] [-lookahead]",
		summary:  "Run one greedy routing trial and print its hop-by-hop trace (no -s/-t: an approximately diametral pair).",
		run:      runTrace,
	},
	{
		name: "snapshot",
		synopsis: "-family powerlaw-tree -n 1048576 -o graph.navsnap [-seed N] [-scheme ball,uniform]\n" +
			"               [-draws K] [-oracle auto|analytic|twohop|field]",
		summary: "Build a graph, its distance oracle and frozen augmentations, and write a .navsnap.",
		run:     runSnapshot,
	},
	{
		name: "serve",
		synopsis: "-snapshot graph.navsnap [-addr 127.0.0.1:8080] [-workers N] [-queue N] [-timeout 2s]\n" +
			"               [-max-batch N] [-landmarks N] [-faults SPEC] [-drain 1s]",
		summary: "Serve distance and greedy-routing queries over HTTP from a snapshot (no rebuild).",
		run:     runServe,
	},
	{
		name: "loadgen",
		synopsis: "[-url http://127.0.0.1:8080] [-mode dist|route] [-rate R] [-duration 5s] [-conns N]\n" +
			"               [-batch N] [-keys uniform|zipf] [-zipf 1.1] [-seed N] [-retries N]",
		summary: "Benchmark a running navsim serve instance; print throughput and latency as one JSON record.",
		run:     runLoadgen,
	},
	{
		name: "chaos",
		synopsis: "-snapshot graph.navsnap [-faults SPEC] [-corrupt twohop] [-duration 5s] [-conns N]\n" +
			"               [-mode dist|route] [-retries N] [-workers N] [-queue N]",
		summary: "Torture a snapshot in-process under injected faults and verify goodput, shedding and byte-identical recovery; print one JSON record.",
		run:     runChaos,
	},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage()
		return
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		err := c.run(c, os.Args[2:])
		switch {
		case errors.Is(err, flag.ErrHelp):
			// -h printed the usage.
		case errors.As(err, new(flagError)):
			os.Exit(2) // the flag package printed the error and the usage
		case err != nil:
			fmt.Fprintf(os.Stderr, "navsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "navsim: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: navsim <command> [flags]")
	fmt.Fprintln(os.Stderr)
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  navsim %s %s\n      %s\n", c.name, c.synopsis, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'navsim <command> -h' for a command's full flag reference.")
}

// newFlagSet builds the command's FlagSet with the unified -h output:
// usage line, summary, then the registered flags.  Parse errors come back
// to the command's run (see parseFlags), so no command exits the process.
func newFlagSet(c *command) *flag.FlagSet {
	fs := flag.NewFlagSet("navsim "+c.name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: navsim %s %s\n\n%s\n\nflags:\n", c.name, c.synopsis, c.summary)
		fs.PrintDefaults()
	}
	return fs
}

// flagError is an unknown or malformed flag, which the flag package has
// already printed with the usage; main exits 2 on it.
type flagError struct{ error }

// parseFlags parses args into fs.  -h comes back as flag.ErrHelp (main
// exits 0), any other parse error as a flagError.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return flagError{err}
	}
	return err
}

func runList(c *command, args []string) error {
	fs := newFlagSet(c)
	format := fs.String("format", "text", "output format: text or md")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch *format {
	case "text":
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
	case "md", "markdown":
		fmt.Println("# Experiments")
		fmt.Println()
		fmt.Println("One scenario per claim of the paper, generated from the experiment specs")
		fmt.Println("(`navsim list -format md`).  Run any of them with")
		fmt.Println("`navsim run -exp <id>`; add `-precision 0.1` for adaptive sampling and")
		fmt.Println("`-format json` for machine-readable output with a run manifest.")
		for _, e := range experiments.All() {
			fmt.Printf("\n## %s — %s\n\n**Claim.** %s\n", e.ID, e.Title, e.Claim)
		}
	default:
		return fmt.Errorf("unknown list format %q (known: text, md)", *format)
	}
	return nil
}

func runExperiments(c *command, args []string) error {
	fs := newFlagSet(c)
	expList := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	scale := fs.Float64("scale", 1.0, "size scale factor (1.0 = EXPERIMENTS.md sizes)")
	seed := fs.Uint64("seed", experiments.DefaultConfig().Seed, "random seed")
	format := fs.String("format", "text", "output format: text, csv, md or json")
	workers := fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS; never affects results)")
	parallel := fs.Int("parallel", 0, "concurrent scenario cells (0 = GOMAXPROCS; never affects results)")
	pairs := fs.Int("pairs", 0, "override source/target pairs per estimate")
	trials := fs.Int("trials", 0, "override augmentation redraws per pair")
	precision := fs.Float64("precision", 0, "adaptive mode: target 95% CI half-width relative to the mean (0 = fixed budgets)")
	maxTrials := fs.Int("max-trials", 0, "adaptive mode: per-pair trial cap (0 = 8x the base budget)")
	oracle := fs.String("oracle", "auto", "distance-source policy: auto, analytic, twohop (twohop-packed is a synonym) or field (identical results; cost knob)")
	quiet := fs.Bool("quiet", false, "suppress the per-cell progress on stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	policy, err := dist.ParseSourcePolicy(*oracle)
	if err != nil {
		return err
	}
	// Reject bad formats before spending minutes running the suite.
	switch strings.ToLower(*format) {
	case "", "text", "txt", "csv", "markdown", "md", "json":
	default:
		return fmt.Errorf("unknown format %q (known: text, csv, md, json)", *format)
	}
	cfg := scenario.Config{
		Seed:      *seed,
		Scale:     *scale,
		Workers:   *workers,
		Parallel:  *parallel,
		Pairs:     *pairs,
		Trials:    *trials,
		Precision: *precision,
		MaxTrials: *maxTrials,
		Oracle:    policy,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	var ids []string
	if *expList != "" {
		ids = strings.Split(*expList, ",")
	}
	rep, err := core.RunSuite(ids, cfg)
	if rep != nil {
		// Render even when an experiment failed: the report carries the
		// completed experiments plus per-experiment error fields (the table
		// formats stop at the first failed experiment on their own).
		if renderErr := rep.Render(os.Stdout, *format); err == nil {
			err = renderErr
		}
	}
	return err
}

func runEstimate(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "grid", "graph family ("+strings.Join(gen.Families(), ", ")+")")
	n := fs.Int("n", 4096, "approximate graph size")
	schemeName := fs.String("scheme", "ball", "augmentation scheme ("+strings.Join(core.SchemeNames(), ", ")+")")
	pairs := fs.Int("pairs", 12, "source/target pairs")
	trials := fs.Int("trials", 6, "augmentation redraws per pair")
	precision := fs.Float64("precision", 0, "adaptive mode: target 95% CI half-width relative to the mean (0 = fixed budget)")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	oracle := fs.String("oracle", "auto", "distance-source policy: auto, analytic, twohop (twohop-packed is a synonym) or field (identical results; cost knob)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	policy, err := dist.ParseSourcePolicy(*oracle)
	if err != nil {
		return err
	}
	g, err := core.GraphByName(*family, *n, *seed)
	if err != nil {
		return err
	}
	scheme, err := core.SchemeByName(*schemeName)
	if err != nil {
		return err
	}
	e := sim.NewEngine(*workers)
	defer e.Close()
	est, err := e.Estimate(g, scheme, sim.Config{
		Pairs:    *pairs,
		Trials:   *trials,
		Seed:     *seed,
		TargetCI: *precision,
		Policy:   policy,
	})
	if err != nil {
		return err
	}
	fmt.Printf("graph:            %v\n", g)
	fmt.Printf("scheme:           %s\n", est.Scheme)
	fmt.Printf("greedy diameter:  %.2f (max over %d sampled pairs of per-pair mean)\n", est.GreedyDiameter, len(est.PairStats))
	ci, over := est.CI95, "pair means"
	if len(est.PairStats) == 1 {
		// One pair's mean has no spread across pairs; its trials do.
		ci, over = est.PairStats[0].Steps.CI95(), "trials"
	}
	fmt.Printf("mean steps:       %.2f ± %.2f (95%% CI over %s)\n", est.MeanSteps, ci, over)
	fmt.Printf("mean long links:  %.2f per route\n", est.MeanLongLinks)
	if est.Adaptive {
		fmt.Printf("samples:          %d routed trials (adaptive, per-pair CI target %.3g)\n", est.Samples, est.TargetCI)
	} else {
		fmt.Printf("samples:          %d routed trials\n", est.Samples)
	}
	return nil
}

func runExact(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "path", "graph family ("+strings.Join(gen.Families(), ", ")+")")
	n := fs.Int("n", 400, "approximate graph size (exact computation is cubic; keep n small)")
	schemeName := fs.String("scheme", "uniform", "augmentation scheme ("+strings.Join(core.SchemeNames(), ", ")+")")
	seed := fs.Uint64("seed", 1, "random seed for graph generation")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	g, err := core.GraphByName(*family, *n, *seed)
	if err != nil {
		return err
	}
	scheme, err := core.SchemeByName(*schemeName)
	if err != nil {
		return err
	}
	res, err := exact.SchemeGreedyDiameter(g, scheme)
	if err != nil {
		return err
	}
	fmt.Printf("graph:                 %v\n", g)
	fmt.Printf("scheme:                %s\n", scheme.Name())
	fmt.Printf("exact greedy diameter: %.4f (pair %d -> %d)\n", res.GreedyDiameter, res.ArgSource, res.ArgTarget)
	fmt.Printf("mean pair expectation: %.4f\n", res.MeanExpectation)
	return nil
}
