package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"navaug/internal/dist"
	"navaug/internal/report"
	"navaug/internal/scenario"
	"navaug/internal/xrand"
)

// smokeConfig keeps experiment runs tiny: sizes are scaled down to the
// 64-node floor and the sampling effort is minimal.
func smokeConfig() Config {
	return Config{Seed: 1, Scale: 0.02, Pairs: 2, Trials: 1}
}

// runSpec executes one spec on a fresh runner.
func runSpec(t *testing.T, spec scenario.Spec, cfg Config) []*report.Table {
	t.Helper()
	runner := scenario.NewRunner(cfg)
	defer runner.Close()
	tables, err := runner.RunSpec(spec)
	if err != nil {
		t.Fatalf("%s failed: %v", spec.ID, err)
	}
	return tables
}

// TestRegistryComplete checks that All lists the 13 experiments as
// complete specs with unique IDs, and that IDs agrees with it.
func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("expected 13 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.CellsFn == nil || e.RenderFn == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(IDs()) != 13 {
		t.Fatal("IDs() length mismatch")
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("E7")
	if !ok || e.ID != "E7" {
		t.Fatal("ByID failed for E7")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestStandardFamiliesConnected(t *testing.T) {
	for _, fam := range standardFamilies() {
		bg, err := fam.Build(200, xrand.New(scenario.Hash64(fam.Name)))
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		if !bg.G.IsConnected() {
			t.Fatalf("%s: disconnected", fam.Name)
		}
	}
}

// Every experiment must run end to end at smoke scale and produce at least
// one non-empty table whose rows match the declared column count.
func TestAllExperimentsSmoke(t *testing.T) {
	runner := scenario.NewRunner(smokeConfig())
	defer runner.Close()
	results := runner.RunAll(All())
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s failed: %v", res.Spec.ID, res.Err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s produced no tables", res.Spec.ID)
		}
		for _, tbl := range res.Tables {
			if tbl.Title == "" {
				t.Fatalf("%s produced an untitled table", res.Spec.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced empty table %q", res.Spec.ID, tbl.Title)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s table %q row has %d cells for %d columns",
						res.Spec.ID, tbl.Title, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf, "text"); err != nil {
				t.Fatalf("%s render: %v", res.Spec.ID, err)
			}
		}
	}
	// The whole point of the shared runner: the suite references far fewer
	// distinct graph instances than it has cells, and the ones it shares
	// (standard families at standard sizes) must be built exactly once.
	stats := runner.Stats()
	if stats.GraphsBuilt >= stats.GraphLookups {
		t.Fatalf("no graph sharing happened: built %d of %d lookups", stats.GraphsBuilt, stats.GraphLookups)
	}
	if stats.Prepares >= stats.InstLookups {
		t.Fatalf("no prepared-scheme sharing happened: %d prepares for %d lookups", stats.Prepares, stats.InstLookups)
	}
}

// TestE12OraclePoliciesAgree pins the cross-oracle determinism contract
// in-tree (the CI smoke pins it end-to-end through navsim): the E12 tables
// must be byte-identical whether distances come from per-target BFS
// fields, the exact 2-hop-cover oracle, or the auto policy mixing the
// tiers per graph.  Any divergence means an oracle returned a wrong
// distance somewhere, so this doubles as an integration-level exactness
// test on the exact graphs E12 measures.
func TestE12OraclePoliciesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds unbudgeted 2-hop labels on expander families; skipped under -short (the race job covers the build via the dist tests)")
	}
	e12, ok := ByID("E12")
	if !ok {
		t.Fatal("E12 not registered")
	}
	render := func(policy dist.SourcePolicy) string {
		cfg := smokeConfig()
		// Scale below the smoke default: the twohop policy builds labels
		// with no budget, and expander-like families (random regular) pay
		// ~sqrt(n)-sized labels — fine at n <= ~5000, minutes at 20000.
		cfg.Scale = 0.005
		cfg.Oracle = policy
		var buf bytes.Buffer
		for _, tbl := range runSpec(t, e12, cfg) {
			if err := tbl.Render(&buf, "csv"); err != nil {
				t.Fatalf("render under %q: %v", policy, err)
			}
		}
		return buf.String()
	}
	want := render(dist.PolicyField)
	for _, policy := range []dist.SourcePolicy{dist.PolicyTwoHop, dist.PolicyAuto, dist.PolicyAnalytic} {
		if got := render(policy); got != want {
			t.Fatalf("E12 tables under %q differ from the field-backed tables:\n%s\nvs\n%s", policy, got, want)
		}
	}
}

// E1 at a slightly larger scale must produce a √n-like exponent for the
// uniform scheme on the path family.
func TestE1ExponentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short mode")
	}
	tables := runSpec(t, E1(), Config{Seed: 7, Scale: 0.25, Pairs: 8, Trials: 4})
	fit := tables[1]
	found := false
	for _, row := range fit.Rows {
		if row[0] != "path" {
			continue
		}
		found = true
		exp := mustFloat(t, row[2])
		if exp < 0.3 || exp > 0.75 {
			t.Fatalf("uniform-on-path exponent %v outside the √n band", exp)
		}
	}
	if !found {
		t.Fatal("no path row in the fit table")
	}
}

// E7 at moderate scale must show the ball scheme beating the uniform scheme
// in fitted exponent on the path family.
func TestE7BallBeatsUniformExponent(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short mode")
	}
	tables := runSpec(t, E7(), Config{Seed: 7, Scale: 0.25, Pairs: 6, Trials: 3})
	fit := tables[1]
	var ballExp, uniExp float64
	var haveBall, haveUni bool
	for _, row := range fit.Rows {
		if row[0] != "path" {
			continue
		}
		switch row[1] {
		case "ball":
			ballExp = mustFloat(t, row[2])
			haveBall = true
		case "uniform":
			uniExp = mustFloat(t, row[2])
			haveUni = true
		}
	}
	if !haveBall || !haveUni {
		t.Fatal("missing fit rows for path")
	}
	if ballExp >= uniExp {
		t.Fatalf("ball exponent %v not below uniform exponent %v", ballExp, uniExp)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

func TestTablesAreRenderableInAllFormats(t *testing.T) {
	tables := runSpec(t, E2(), smokeConfig())
	for _, format := range []string{"text", "csv", "markdown"} {
		var buf bytes.Buffer
		for _, tbl := range tables {
			if err := tbl.Render(&buf, format); err != nil {
				t.Fatalf("format %s: %v", format, err)
			}
		}
		if buf.Len() == 0 {
			t.Fatalf("format %s produced nothing", format)
		}
	}
	_ = report.Cell(1.0)
}
