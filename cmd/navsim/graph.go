package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/route"
	"navaug/internal/xrand"
)

// runGraph writes a graph of a named family in the library's text
// edge-list format (or Graphviz DOT) and a structural summary to stderr.
func runGraph(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "grid", "graph family ("+strings.Join(gen.Families(), ", ")+")")
	n := fs.Int("n", 1024, "approximate number of nodes")
	seed := fs.Uint64("seed", 1, "random seed for random families")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of the edge-list format")
	out := fs.String("o", "", "output file (default stdout)")
	listFamilies := fs.Bool("families", false, "list the known graph families and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *listFamilies {
		fmt.Println(strings.Join(gen.Families(), "\n"))
		return nil
	}
	g, err := core.GraphByName(*family, *n, *seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		w = f
	}
	if *dot {
		_, err = io.WriteString(w, g.DOT())
	} else {
		_, err = g.WriteTo(w)
	}
	if err != nil {
		return err
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			return err
		}
	}
	diamEst := dist.EstimateDiameter(g, 4, xrand.New(*seed))
	fmt.Fprintf(os.Stderr, "generated %v: max degree %d, avg degree %.2f, diameter >= %d\n",
		g, g.MaxDegree(), g.AverageDegree(), diamEst)
	return nil
}

// runTrace runs one greedy routing trial on an augmented graph and prints
// the hop-by-hop trace.
func runTrace(c *command, args []string) error {
	fs := newFlagSet(c)
	family := fs.String("family", "grid", "graph family ("+strings.Join(gen.Families(), ", ")+")")
	n := fs.Int("n", 1024, "approximate number of nodes")
	schemeName := fs.String("scheme", "ball", "augmentation scheme ("+strings.Join(core.SchemeNames(), ", ")+")")
	src := fs.Int("s", -1, "source node (negative = auto)")
	dst := fs.Int("t", -1, "target node (negative = auto)")
	seed := fs.Uint64("seed", 7, "random seed")
	lookahead := fs.Bool("lookahead", false, "use neighbour-of-neighbour lookahead routing")
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
	s, t, err := traceEndpoints(g, *src, *dst)
	if err != nil {
		return err
	}
	inst, err := scheme.Prepare(g)
	if err != nil {
		return err
	}
	distToTarget := g.BFS(t)
	if distToTarget[s] == graph.Unreachable {
		return fmt.Errorf("target %d unreachable from source %d", t, s)
	}
	field := dist.NewField(distToTarget)
	greedy := route.Greedy
	if *lookahead {
		greedy = route.GreedyWithLookahead
	}
	res, err := greedy(g, inst, s, t, field, xrand.New(*seed), route.Options{Trace: true})
	if err != nil {
		return err
	}

	fmt.Printf("graph:   %v\n", g)
	fmt.Printf("scheme:  %s\n", scheme.Name())
	fmt.Printf("route:   %d -> %d (graph distance %d)\n", s, t, distToTarget[s])
	fmt.Printf("steps:   %d (%d via long-range links), reached=%v\n", res.Steps, res.LongLinksUsed, res.Reached)
	fmt.Println("trace (node, distance to target):")
	for i, v := range res.Path {
		marker := ""
		if i > 0 && !g.HasEdge(res.Path[i-1], v) {
			marker = "  <- long-range link"
		}
		fmt.Printf("  %4d: node %-8d dist %-6d%s\n", i, v, distToTarget[v], marker)
	}
	return nil
}

// traceEndpoints resolves the -s/-t flags: both negative picks the
// endpoints of an (approximately) diametral pair; otherwise both must name
// nodes of g.
func traceEndpoints(g *graph.Graph, src, dst int) (s, t graph.NodeID, err error) {
	switch {
	case src < 0 && dst < 0:
		s, t, _ = dist.ExtremalPair(g)
		return s, t, nil
	case src < 0 || dst < 0:
		return 0, 0, fmt.Errorf("give both -s and -t, or neither (got -s %d -t %d)", src, dst)
	}
	for _, v := range []int{src, dst} {
		if v >= g.N() {
			return 0, 0, fmt.Errorf("node %d out of range: the graph has n=%d nodes (0..%d)", v, g.N(), g.N()-1)
		}
	}
	return graph.NodeID(src), graph.NodeID(dst), nil
}
