package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wls []string
	for _, wl := range bf.Workloads {
		wls = append(wls, wl.Name)
	}
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	if !slices.Equal(wls, ours) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", wls, ours)
	}
	if got := names(bf.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, endToEnd)
	}
	if got := names(bf.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, perLayer)
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, harness emits %q", m.Name, m.Unit, u)
		}
	}
}

// TestToyWorkloads runs every workload at toy size (n = 4096, 1 s phases,
// E1 at scale 0.05) with tracing on, and checks that it passes its gates,
// emits every metric BENCHMARK.json names, measures every time it reports,
// and writes a trace in which each child span lies inside its parent.
func TestToyWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			if wl.prep != nil {
				if err := wl.prep(&worker{wl: wl, seed: wl.seed, toy: true, out: out}); err != nil {
					t.Fatal(err)
				}
			}
			res, err := measure(wl, wl.seed, 2*time.Second, true, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", m.Name)
				case m.Unit == "s" && v <= 0, m.Unit == "us" && v <= 0:
					t.Errorf("time %s = %g was not measured", m.Name, v)
				}
			}
			b, err := os.ReadFile(filepath.Join(out, wl.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct{ Spans []span }
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			byID := make(map[int64]span, len(tf.Spans))
			for _, s := range tf.Spans {
				byID[s.ID] = s
			}
			for _, s := range tf.Spans {
				if s.Self < 0 || s.Self > s.End-s.Start {
					t.Errorf("span %s: self %d outside [0, %d]", s.Name, s.Self, s.End-s.Start)
				}
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok {
					t.Errorf("span %s: parent %d missing", s.Name, s.Parent)
				} else if s.Start < p.Start || s.End > p.End {
					t.Errorf("span %s [%d,%d] not inside parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
		})
	}
}

// offByOne is a distance source that answers one hop too far.
type offByOne struct{ src dist.Source }

func (o offByOne) Dist(u, v graph.NodeID) int32 { return o.src.Dist(u, v) + 1 }

func TestDistGateCatchesWrongOracle(t *testing.T) {
	w := &worker{wl: workloads[0], seed: 1, toy: true, out: t.TempDir(),
		res: &result{Metrics: make(map[string]float64)}}
	if err := distTree.prep(w); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadFile(w.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	snap.Metric = offByOne{snap.Source()}
	srv, err := serve.New(snap, serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	gateDist(w, c, ts.URL, snap.Graph, xrand.New(7), 2, 16)
	if w.res.Failed != 32 || len(w.res.Problems) == 0 {
		t.Fatalf("gate passed a wrong oracle: %d of %d failed, problems %v", w.res.Failed, w.res.Attempted, w.res.Problems)
	}
}
