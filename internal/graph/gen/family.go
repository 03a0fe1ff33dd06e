package gen

import (
	"fmt"
	"sort"
	"strings"

	"navaug/internal/graph"
	"navaug/internal/xrand"
)

// ByName builds a graph of a named family at (approximately) the given
// size, drawing any randomness from rng.  It is the one place a family name
// is given meaning: the command-line tool, the snapshot writer and every
// experiment build through it, so equal (family, n, rng) give the same
// graph wherever they are named.  Recognised families (aliases in
// parentheses):
//
//	path, cycle, grid, grid3d, torus, hypercube, complete, star,
//	binary-tree (bintree), balanced-tree, random-tree (rtree),
//	attachment-tree (ratree), caterpillar, spider, comb, interval, gnp,
//	regular, watts-strogatz (ws), powerlaw (plaw),
//	powerlaw-tree (plaw-tree), lollipop, barbell
func ByName(family string, n int, rng *xrand.RNG) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: graph size must be >= 1, got %d", n)
	}
	switch strings.ToLower(strings.TrimSpace(family)) {
	case "path":
		return Path(n), nil
	case "cycle":
		return Cycle(max(n, 3)), nil
	case "grid":
		side := intSqrt(n)
		return Grid2D(side, side), nil
	case "grid3d":
		side := intCbrt(n)
		return Grid3D(side, side, side), nil
	case "torus":
		side := max(intSqrt(n), 3)
		return Torus2D(side, side), nil
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return Hypercube(d), nil
	case "complete":
		return Complete(n), nil
	case "star":
		return Star(n), nil
	case "binary-tree", "bintree":
		return BinaryTree(n), nil
	case "balanced-tree":
		depth := 0
		for count := 1; count < n; count = count*3 + 1 {
			depth++
		}
		return BalancedTree(3, depth), nil
	case "random-tree", "rtree":
		return RandomTree(n, rng), nil
	case "attachment-tree", "ratree":
		return RandomAttachmentTree(n, rng), nil
	case "caterpillar":
		return Caterpillar(max(n/4, 1), 3), nil
	case "spider":
		return Spider(8, max((n-1)/8, 1)), nil
	case "comb":
		return Comb(max(n/4, 1), 3), nil
	case "interval":
		g, _ := RandomIntervalGraph(n, 3.0, rng)
		return g, nil
	case "gnp":
		return ConnectedGNP(n, 3.0/float64(n), rng), nil
	case "regular":
		d := 4
		if n <= d {
			d = max(n-1, 1)
		}
		if n*d%2 != 0 {
			d++
		}
		return RandomRegular(n, d, rng)
	case "powerlaw", "plaw":
		if n < 3 {
			return nil, fmt.Errorf("gen: powerlaw needs n >= 3")
		}
		return PowerLawAttachment(n, 2, rng), nil
	case "powerlaw-tree", "plaw-tree":
		if n < 2 {
			return nil, fmt.Errorf("gen: powerlaw-tree needs n >= 2")
		}
		return PowerLawAttachment(n, 1, rng), nil
	case "watts-strogatz", "ws":
		if n < 5 {
			return nil, fmt.Errorf("gen: watts-strogatz needs n >= 5")
		}
		return WattsStrogatz(n, 2, 0.1, rng), nil
	case "lollipop":
		clique := max(intSqrt(n), 2)
		return Lollipop(clique, n-clique), nil
	case "barbell":
		clique := max(intSqrt(n), 2)
		return Barbell(clique, max(n-2*clique, 0)), nil
	default:
		return nil, fmt.Errorf("gen: unknown graph family %q (known: %s)", family, strings.Join(Families(), ", "))
	}
}

// Families lists the canonical family names ByName understands, sorted.
func Families() []string {
	fams := []string{
		"path", "cycle", "grid", "grid3d", "torus", "hypercube", "complete", "star",
		"binary-tree", "balanced-tree", "random-tree", "attachment-tree", "caterpillar",
		"spider", "comb", "interval", "gnp", "regular", "watts-strogatz", "powerlaw",
		"powerlaw-tree", "lollipop", "barbell",
	}
	sort.Strings(fams)
	return fams
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func intCbrt(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}
