package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a minimal text interchange format for graphs so that
// the CLI tools can pipe graphs between each other and into files.
//
// Format (one record per line, '#' starts a comment):
//
//	graph <n> <m> [name]
//	<u> <v>            (m edge lines)

// MaxTextNodes and MaxTextEdges bound the sizes Read accepts.  The text
// format exists for piping experiment graphs between the CLI tools; the
// caps keep a hostile or corrupted header ("graph 99999999999 0") from
// forcing a multi-gigabyte allocation — or overflowing the int32 node-id
// space — before a single edge line has been seen.
const (
	MaxTextNodes = 1 << 24
	MaxTextEdges = 1 << 26
)

// WriteTo serialises the graph in the text edge-list format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "graph %d %d %s\n", g.n, g.m, g.name)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				n, err = fmt.Fprintf(bw, "%d %d\n", u, v)
				total += int64(n)
				if err != nil {
					return total, err
				}
			}
		}
	}
	return total, bw.Flush()
}

// Read parses a graph previously written with WriteTo.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var b *Builder
	var want, got int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) < 3 || fields[0] != "graph" {
				return nil, fmt.Errorf("graph: bad header %q", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: bad node count %q", fields[1])
			}
			if n > MaxTextNodes {
				return nil, fmt.Errorf("graph: node count %d exceeds the text-format cap %d", n, MaxTextNodes)
			}
			m, err := strconv.Atoi(fields[2])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("graph: bad edge count %q", fields[2])
			}
			if m > MaxTextEdges {
				return nil, fmt.Errorf("graph: edge count %d exceeds the text-format cap %d", m, MaxTextEdges)
			}
			want = m
			b = NewBuilder(n)
			if len(fields) > 3 {
				b.SetName(strings.Join(fields[3:], " "))
			}
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q", fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q", fields[1])
		}
		if u < 0 || v < 0 || u >= int(b.n) || v >= int(b.n) {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		b.AddEdge(int32(u), int32(v))
		got++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if got != want {
		return nil, fmt.Errorf("graph: header promises %d edges, found %d", want, got)
	}
	return b.Build(), nil
}

// DOT renders the graph in Graphviz DOT syntax, which is convenient for
// eyeballing small instances.
func (g *Graph) DOT() string {
	var sb strings.Builder
	name := g.name
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(&sb, "graph %q {\n", name)
	for u := int32(0); u < g.n; u++ {
		if g.Degree(u) == 0 {
			fmt.Fprintf(&sb, "  %d;\n", u)
		}
	}
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fmt.Fprintf(&sb, "  %d -- %d;\n", u, v)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
