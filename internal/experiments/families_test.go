package experiments_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"navaug/internal/core"
	"navaug/internal/experiments"
	"navaug/internal/scenario"
	"navaug/internal/xrand"
)

// TestOneBuilderPerName pins that a family name means one graph: for every
// cell of every spec at scale 0.05 whose family gen.ByName knows, the
// spec's builder returns the graph core.GraphByName builds under the run's
// GraphSeed — the graph `navsim snapshot` writes for that family, size and
// seed.  A spec declaring its own builder under a gen name (say a grid of
// another side) fails here, where the runner, which caches by (Family, N),
// would silently share whichever builder ran first.
func TestOneBuilderPerName(t *testing.T) {
	cfg := scenario.Config{Seed: scenario.DefaultConfig().Seed, Scale: 0.05}.WithDefaults()
	seen := map[string]bool{}
	checked := 0
	for _, spec := range experiments.All() {
		cells, err := spec.Cells(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		for _, c := range cells {
			ref := c.Graph
			key := fmt.Sprintf("%s/%s@%d", spec.ID, ref.Family, ref.N)
			if seen[key] {
				continue
			}
			seen[key] = true
			seed := scenario.GraphSeed(cfg.Seed, ref.Family, ref.N)
			want, err := core.GraphByName(ref.Family, ref.N, seed)
			if err != nil {
				if strings.Contains(err.Error(), "unknown graph family") {
					continue // a spec-local family, such as E4's interval models
				}
				t.Fatalf("%s: %v", key, err)
			}
			checked++
			bg, err := ref.Build(ref.N, xrand.New(seed))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := bg.G.Name(); got != want.Name() {
				t.Errorf("%s: spec builds %s, gen builds %s", key, got, want.Name())
				continue
			}
			gotOff, gotAdj := bg.G.RawCSR()
			wantOff, wantAdj := want.RawCSR()
			if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
				t.Errorf("%s: spec and gen build %s with different edges", key, want.Name())
			}
		}
	}
	t.Logf("checked %d of %d (spec, family, n) instances", checked, len(seen))
	if checked < 50 {
		t.Fatalf("only %d (spec, family, n) instances checked", checked)
	}
}
