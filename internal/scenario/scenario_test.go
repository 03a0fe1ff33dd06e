package scenario

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/churn"
	"navaug/internal/report"
	"navaug/internal/xrand"
)

// testSweep builds a small two-family, two-scheme sweep whose graph builds
// are counted through the passed counter.
func testSweep(id string, builds *atomic.Int64) Spec {
	fam := func(name string) Family {
		return Family{Name: name, Build: func(n int, rng *xrand.RNG) (*BuiltGraph, error) {
			if builds != nil {
				builds.Add(1)
			}
			return Named(name).Build(n, rng)
		}}
	}
	return Sweep{
		ID:          id,
		Title:       "test sweep " + id,
		Claim:       "testing only",
		Families:    []Family{fam("path"), fam("cycle")},
		Sizes:       []int{3200, 6400},
		Schemes:     []SchemeRef{Scheme(augment.NewUniformScheme()), Scheme(augment.NewNoAugmentation())},
		Pairs:       3,
		Trials:      2,
		DetailTitle: id + ": detail",
		FitTitle:    id + ": fits",
	}.Spec()
}

func TestConfigScaleSizes(t *testing.T) {
	sizes := Config{Scale: 0.01}.ScaleSizes(1000, 2000, 4000)
	if len(sizes) == 0 {
		t.Fatal("no sizes")
	}
	for i, n := range sizes {
		if n < 64 {
			t.Fatalf("size %d below floor", n)
		}
		if i > 0 && sizes[i] <= sizes[i-1] {
			t.Fatal("sizes not strictly increasing")
		}
	}
	c := Config{}.WithDefaults()
	if c.Scale != 1.0 || c.Seed == 0 {
		t.Fatalf("defaults %+v", c)
	}
}

func TestHash64Stable(t *testing.T) {
	if Hash64("path") != Hash64("path") {
		t.Fatal("hash unstable")
	}
	if Hash64("path") == Hash64("grid") {
		t.Fatal("distinct strings collide (unlucky but fix the seed)")
	}
}

func TestRunnerSharesGraphsAndInstances(t *testing.T) {
	var builds atomic.Int64
	// Two specs over the same families and sizes: every graph must be built
	// once, not once per spec, and the uniform scheme prepared once per
	// graph instance.
	specA := testSweep("SA", &builds)
	specB := testSweep("SB", &builds)
	runner := NewRunner(Config{Seed: 5, Scale: 0.05, Parallel: 4, Workers: 2})
	defer runner.Close()
	results := runner.RunAll([]Spec{specA, specB})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.Tables) != 2 {
			t.Fatalf("%s: %d tables", r.Spec.ID, len(r.Tables))
		}
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("expected 4 graph builds (2 families x 2 sizes, shared by both specs), got %d", got)
	}
	stats := runner.Stats()
	if stats.GraphsBuilt != 4 || stats.GraphLookups != 16 {
		t.Fatalf("sharing counters off: %+v", stats)
	}
	if stats.Prepares != 8 || stats.InstLookups != 16 {
		t.Fatalf("prepare sharing counters off: %+v", stats)
	}
	if stats.Cells != 16 || stats.Trials == 0 {
		t.Fatalf("cell counters off: %+v", stats)
	}
}

func TestRunnerReleasesArtefacts(t *testing.T) {
	runner := NewRunner(Config{Seed: 5, Scale: 0.05, Parallel: 2})
	defer runner.Close()
	if _, err := runner.RunSpec(testSweep("SR", nil)); err != nil {
		t.Fatal(err)
	}
	left := 0
	runner.graphs.Range(func(any, any) bool { left++; return true })
	runner.insts.Range(func(any, any) bool { left++; return true })
	if left != 0 {
		t.Fatalf("%d cached artefacts survived the run", left)
	}
}

// TestRunnerSharesChurnStreams pins the stream sharing of churned graphs:
// the budget cells of one (family, n, stream) build the base graph and run
// the stream once, share one frozen table per scheme, and still measure one
// oracle per budget.  Every stream, graph and instance entry is released
// when the run ends.
func TestRunnerSharesChurnStreams(t *testing.T) {
	var builds atomic.Int64
	fam := Family{Name: "cycle", Build: func(n int, rng *xrand.RNG) (*BuiltGraph, error) {
		builds.Add(1)
		return Named("cycle").Build(n, rng)
	}}
	schemes := []SchemeRef{Scheme(augment.NewUniformScheme()), Scheme(augment.NewBallScheme())}
	spec := Spec{
		ID: "SC",
		CellsFn: func(Config) ([]Cell, error) {
			var cells []Cell
			for _, budget := range []int{0, 2, -1} {
				ref := fam.Ref(200)
				ref.Churn = &churn.Spec{Rate: 0.02, Batches: 4, RepairBudget: budget, CompactEvery: 2}
				for _, s := range schemes {
					cells = append(cells, Cell{Graph: ref, Scheme: s, Pairs: 3, Trials: 2})
				}
			}
			return cells, nil
		},
		RenderFn: func(_ Config, res []CellResult) ([]*report.Table, error) {
			debts := make(map[int]int)
			for _, r := range res {
				cres := r.Aux.(*churn.Result)
				if cres.Stream != res[0].Aux.(*churn.Result).Stream {
					return nil, fmt.Errorf("budget %d replayed a stream of its own", cres.Spec.RepairBudget)
				}
				debts[cres.Spec.RepairBudget] = cres.DebtRemaining
			}
			if len(debts) != 3 || debts[-1] != 0 || debts[0] == 0 {
				return nil, fmt.Errorf("per-budget debts %v", debts)
			}
			tbl := report.NewTable("SC", "cells")
			tbl.AddRow(len(res))
			return []*report.Table{tbl}, nil
		},
	}
	runner := NewRunner(Config{Seed: 3, Scale: 1, Parallel: 4, Workers: 2})
	defer runner.Close()
	if _, err := runner.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("base graph built %d times, want once for the shared stream", got)
	}
	if st := runner.Stats(); st.GraphsBuilt != 3 || st.Prepares != 2 || st.Cells != 6 {
		t.Fatalf("want 3 budget graphs and 2 frozen tables over 6 cells, got %+v", st)
	}
	left := 0
	for _, m := range []*sync.Map{&runner.graphs, &runner.streams, &runner.insts} {
		m.Range(func(any, any) bool { left++; return true })
	}
	if left != 0 {
		t.Fatalf("%d cached artefacts survived the run", left)
	}
}

// renderAll renders a run's tables to one deterministic byte stream.
func renderAll(t *testing.T, results []SpecResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for _, tbl := range r.Tables {
			if err := tbl.Render(&buf, "csv"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestRunDeterministicAcrossWorkersAndParallelism(t *testing.T) {
	specs := func() []Spec { return []Spec{testSweep("SD", nil), testSweep("SE", nil)} }
	run := func(workers, parallel int, precision float64) []byte {
		runner := NewRunner(Config{Seed: 11, Scale: 0.05, Workers: workers, Parallel: parallel, Precision: precision})
		defer runner.Close()
		return renderAll(t, runner.RunAll(specs()))
	}
	for _, precision := range []float64{0, 0.1} {
		serial := run(1, 1, precision)
		concurrent := run(4, 8, precision)
		if !bytes.Equal(serial, concurrent) {
			t.Fatalf("precision %v: output depends on workers/parallelism:\n%s\nvs\n%s",
				precision, serial, concurrent)
		}
	}
}

func TestAdaptivePrecisionUsesFewerTrialsThanFixed(t *testing.T) {
	// A sweep with a generous fixed budget, the regime the experiment suite
	// runs in: the paper sweeps hand every pair the worst-case budget, while
	// adaptive mode lets low-variance pairs stop at half of it.
	spec := Sweep{
		ID: "SF", Title: "adaptive test", Claim: "testing only",
		Families:    []Family{Named("path")},
		Sizes:       []int{3200, 6400},
		Schemes:     []SchemeRef{Scheme(augment.NewUniformScheme()), Scheme(augment.NewNoAugmentation())},
		Pairs:       4,
		Trials:      12,
		DetailTitle: "SF: detail",
	}.Spec()
	run := func(precision float64) RunStats {
		runner := NewRunner(Config{Seed: 3, Scale: 0.2, Precision: precision})
		defer runner.Close()
		results := runner.RunAll([]Spec{spec})
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return runner.Stats()
	}
	fixed := run(0)
	// The no-augmentation cells are deterministic walks and the uniform
	// cells on small paths converge quickly, so a loose target must spend
	// fewer trials than the fixed budget overall.
	adaptive := run(0.4)
	if adaptive.Trials >= fixed.Trials {
		t.Fatalf("adaptive (%d trials) did not beat the fixed budget (%d trials)",
			adaptive.Trials, fixed.Trials)
	}
}

func TestRunnerPropagatesCellErrors(t *testing.T) {
	spec := Spec{
		ID: "SBAD", Title: "bad", Claim: "bad",
		CellsFn: func(cfg Config) ([]Cell, error) {
			return []Cell{{
				Graph: GraphRef{Family: "broken", N: 64, Build: func(int, *xrand.RNG) (*BuiltGraph, error) {
					return nil, fmt.Errorf("boom")
				}},
				Scheme: Scheme(augment.NewUniformScheme()),
			}}, nil
		},
		RenderFn: func(cfg Config, res []CellResult) ([]*report.Table, error) {
			t.Fatal("render must not run after a cell error")
			return nil, nil
		},
	}
	runner := NewRunner(Config{Seed: 1})
	defer runner.Close()
	if _, err := runner.RunSpec(spec); err == nil {
		t.Fatal("cell error not propagated")
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	runner := NewRunner(Config{Seed: 2, Scale: 0.05, Progress: &buf})
	defer runner.Close()
	if _, err := runner.RunSpec(testSweep("SP", nil)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no progress emitted")
	}
	if !bytes.Contains(buf.Bytes(), []byte("SP")) {
		t.Fatalf("progress lines carry no spec id: %s", buf.String())
	}
}

// TestSweepCellFilterSinglePointGroupSkipsFit pins the graceful-degradation
// contract of filtered sweeps: a (family, scheme) group reduced to one size
// — a CellFilter cap falling below the second scaled size, or an extreme
// Config.Scale — gets no fit row instead of failing the whole spec after
// every cell has been measured.
func TestSweepCellFilterSinglePointGroupSkipsFit(t *testing.T) {
	spec := Sweep{
		ID:       "FILT",
		Title:    "filtered sweep",
		Claim:    "testing only",
		Families: []Family{Named("path")},
		Sizes:    []int{3200, 6400},
		Schemes:  []SchemeRef{Scheme(augment.NewUniformScheme()), Scheme(augment.NewNoAugmentation())},
		Pairs:    2,
		Trials:   1,
		// Keep both sizes for uniform but only the first for none.
		CellFilter: func(_, schemeKey string, n int) bool {
			return schemeKey == "uniform" || n <= 64
		},
		DetailTitle: "FILT: detail",
		FitTitle:    "FILT: fits",
	}.Spec()
	r := NewRunner(Config{Seed: 5, Scale: 0.02, Workers: 2})
	defer r.Close()
	tables, err := r.RunSpec(spec)
	if err != nil {
		t.Fatalf("filtered sweep failed: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want detail + fits", len(tables))
	}
	if rows := len(tables[0].Rows); rows != 3 {
		t.Fatalf("detail has %d rows, want 3 (2 uniform sizes + 1 filtered none size)", rows)
	}
	if rows := len(tables[1].Rows); rows != 1 {
		t.Fatalf("fit table has %d rows, want 1 (the single-point group is skipped)", rows)
	}
}
