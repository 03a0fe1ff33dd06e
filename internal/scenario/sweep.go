package scenario

import (
	"fmt"

	"navaug/internal/graph/gen"
	"navaug/internal/report"
	"navaug/internal/sim"
	"navaug/internal/stats"
	"navaug/internal/xrand"
)

// Family is a named graph family for sweep specs.
type Family struct {
	Name  string
	Build func(n int, rng *xrand.RNG) (*BuiltGraph, error)
}

// Named is the family gen.ByName builds under name, with the family's
// closed-form metric (gen.MetricFor), when it has one, attached to every
// built graph.  Every spec that measures a family gen knows names it this
// way, so a (Family, N) cache identity always means one builder.
func Named(name string) Family {
	return Family{Name: name, Build: func(n int, rng *xrand.RNG) (*BuiltGraph, error) {
		g, err := gen.ByName(name, n, rng)
		if err != nil {
			return nil, err
		}
		bg := &BuiltGraph{G: g}
		if m, ok := gen.MetricFor(g); ok {
			bg.Metric = m
		}
		return bg, nil
	}}
}

// Ref returns the GraphRef of this family at one size.
func (f Family) Ref(n int) GraphRef {
	return GraphRef{Family: f.Name, N: n, Build: f.Build}
}

// Column is a derived detail-table column computed from a measured cell.
type Column struct {
	Name  string
	Value func(res CellResult) any
}

// Sweep is the declarative core shape shared by most experiments: measure
// every scheme on every family at every size, tabulate the estimates with
// optional derived columns, and fit a power law per (family, scheme).
// Cells are enumerated family-major, then scheme, then size, which is also
// the detail-table row order.
type Sweep struct {
	ID, Title, Claim string
	Families         []Family
	// Sizes are the base sweep sizes, scaled by Config.Scale at run time.
	Sizes   []int
	Schemes []SchemeRef
	// Pairs and Trials are the per-cell base budget.
	Pairs, Trials int
	// CellFilter, when non-nil, keeps only the (family, scheme, size)
	// combinations it returns true for; n is the scaled size.  Sweeps use
	// it to cap individual families or schemes below the full size range
	// (e.g. E12 stops expander-like families where 2-hop labels grow
	// ~sqrt(n) while tree-like families continue to n = 2^20).  A group
	// left with fewer than two sizes simply gets no fit-table row.
	CellFilter func(family, schemeKey string, n int) bool
	// Precision is the cells' default adaptive CI target (0 = fixed budget
	// unless the Config sets one).
	Precision float64
	// DetailTitle titles the measurement table; Columns appends derived
	// columns to its standard ones.
	DetailTitle string
	Columns     []Column
	// FitTitle, when non-empty, adds a power-law fit table (one row per
	// family × scheme) with FitNote as its footnote.
	FitTitle string
	FitNote  string
	// Finalize, when non-nil, may post-process the rendered tables (e.g.
	// append a note computed over all results).
	Finalize func(res []CellResult, tables []*report.Table)
}

// Spec compiles the sweep into a runnable Spec.
func (s Sweep) Spec() Spec {
	return Spec{
		ID:    s.ID,
		Title: s.Title,
		Claim: s.Claim,
		CellsFn: func(cfg Config) ([]Cell, error) {
			sizes := cfg.ScaleSizes(s.Sizes...)
			cells := make([]Cell, 0, len(s.Families)*len(s.Schemes)*len(sizes))
			for _, fam := range s.Families {
				for _, scheme := range s.Schemes {
					for _, n := range sizes {
						if s.CellFilter != nil && !s.CellFilter(fam.Name, scheme.Key, n) {
							continue
						}
						cells = append(cells, Cell{
							Graph:     fam.Ref(n),
							Scheme:    scheme,
							Pairs:     s.Pairs,
							Trials:    s.Trials,
							Precision: s.Precision,
						})
					}
				}
			}
			return cells, nil
		},
		RenderFn: func(cfg Config, res []CellResult) ([]*report.Table, error) {
			return s.render(res)
		},
	}
}

// render builds the detail table (standard columns plus derived ones) and,
// when requested, the per-(family, scheme) power-law fit table.
func (s Sweep) render(res []CellResult) ([]*report.Table, error) {
	cols := []string{"family", "n", "scheme", "greedy_diam", "mean_steps", "ci95", "trials"}
	for _, c := range s.Columns {
		cols = append(cols, c.Name)
	}
	detail := report.NewTable(s.DetailTitle, cols...)
	for _, r := range res {
		row := []any{r.Cell.Graph.Family, r.Est.N, r.Est.Scheme,
			r.Est.GreedyDiameter, r.Est.MeanSteps, r.Est.CI95, r.Est.Samples}
		for _, c := range s.Columns {
			row = append(row, c.Value(r))
		}
		detail.AddRow(row...)
	}
	tables := []*report.Table{detail}

	if s.FitTitle != "" {
		fits := report.NewTable(s.FitTitle, "family", "scheme", "exponent", "R2", "points")
		// res is family-major then scheme then size, so each (family, scheme)
		// group is a contiguous run of cells — of variable length once a
		// CellFilter has dropped sizes, hence the key-change boundary scan.
		group := 0
		for group < len(res) {
			famKey, schemeKey := res[group].Cell.Graph.Family, res[group].Cell.Scheme.Key
			var xs, ys []float64
			end := group
			for end < len(res) && res[end].Cell.Graph.Family == famKey && res[end].Cell.Scheme.Key == schemeKey {
				xs = append(xs, float64(res[end].Est.N))
				ys = append(ys, res[end].Est.GreedyDiameter)
				end++
			}
			// A group collapsed to one point — extreme Config.Scale values,
			// or a CellFilter cap falling below the second size — has no
			// fittable shape; skip its row rather than failing the whole
			// spec after every cell has already been measured.
			if len(xs) >= 2 {
				fit, err := stats.PowerLaw(xs, ys)
				if err != nil {
					return nil, fmt.Errorf("%s: fitting %s/%s: %w", s.ID, famKey, schemeKey, err)
				}
				fits.AddRow(famKey, res[group].Est.Scheme, fit.Exponent, fit.R2, fit.N)
			}
			group = end
		}
		if len(fits.Rows) > 0 {
			if s.FitNote != "" {
				fits.AddNote("%s", s.FitNote)
			}
			tables = append(tables, fits)
		}
	}
	if s.Finalize != nil {
		s.Finalize(res, tables)
	}
	return tables, nil
}

// EstimateOf finds the estimate of one (family, n, scheme) cell in sweep
// results, or nil.
func EstimateOf(res []CellResult, family string, n int, schemeKey string) *sim.Estimate {
	for _, r := range res {
		if r.Cell.Graph.Family == family && r.Cell.Graph.N == n && r.Cell.Scheme.Key == schemeKey {
			return r.Est
		}
	}
	return nil
}
