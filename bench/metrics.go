package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics an untraced run reports for every workload,
// the ones BENCHMARK.json bounds.  Each workload defines its own operation
// (a query, a snapshot build, an experiment) and its own set-up; README.md
// gives the per-workload definitions.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_ms", "peak_rss_mb"}

// perLayer lists the per-layer metrics a traced run reports for every
// workload: exact counts that are 0 where a workload never enters the layer,
// plus the times every workload spends.  p99_ms is here because its spread
// between runs on a shared 2-core machine (0.5 and more) is far wider than
// the bound of the other timings.  Workload-specific layer times (handler
// latency, probe cost, label build, per-experiment time, ...) are reported
// next to these in the result document and the table.
var perLayer = []string{
	"p99_ms", "graph.build_s", "proc.cpu_us_per_op", "go.alloc_kb_per_op", "go.gc_cycles",
	"dist.label_avg", "dist.label_max", "dist.label_bytes", "dist.label_entries_per_probe",
	"route.probes_per_route", "route.steps_per_route", "route.long_links_per_route",
	"augment.contacts_per_route", "snapshot.bytes",
	"sim.trials", "scenario.graphs_built", "scenario.prepares", "scenario.cells",
	"serve.shed", "serve.timeouts", "serve.errors", "loadgen.samples", "loadgen.open_p50_ms",
}

// unitOf derives a metric's unit from its name suffix, so every metric the
// harness emits carries one.
func unitOf(name string) string {
	name = strings.TrimSuffix(name, "_wall")
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	case strings.Contains(name, "_kb_"):
		return "KB"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// result is what one measuring process reports for one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Trace is the traced run's time per span name.
	Trace map[string]*layerTime `json:"trace,omitempty"`
}

// set records a metric.  A value that is not a finite number (the median
// of no samples, say) is a harness failure, not a measurement.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s has no value", name)
		delete(r.Metrics, name)
		return
	}
	r.Metrics[name] = v
}

// setScaled records a time or rate at reference speed under name and its
// wall-clock value under name_wall (see clock.go).
func (r *result) setScaled(name string, ref, wall float64) {
	r.set(name, ref)
	r.set(name+"_wall", wall)
}

// ops records attempted operations and how many of them failed.
func (r *result) ops(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// problem records a failed correctness check; the run is then incorrect.
func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// median returns the middle of xs (the mean of the two middles for an even
// count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, leaving xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// A run sets up at least minSetUps times and, except at toy size, until
// setUpBudget has passed, and reports the median: a set-up of a few
// milliseconds is repeated often enough that slow ones cannot move the
// median, one of over a second three times.
const (
	minSetUps   = 3
	setUpBudget = 2 * time.Second
)

func (w *worker) moreSetUps(done int, start time.Time) bool {
	return done < minSetUps || (!w.toy && time.Since(start) < setUpBudget)
}

// reportOps reports operations of equal work run one after another:
// ops_per_s is their count over the time spent inside them, p50_ms and
// p99_ms the median and nearest-rank p99 of one, all at reference speed.
func reportOps(w *worker, ops []scaled) {
	ref, wall := refSecs(ops), wallSecs(ops)
	w.res.setScaled("ops_per_s", float64(len(ops))/sum(ref), float64(len(ops))/sum(wall))
	w.res.setScaled("p50_ms", median(ref)*1e3, median(wall)*1e3)
	w.res.set("p99_ms", quantile(ref, 0.99)*1e3)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// meter is the process-wide cost of the program: CPU time, bytes allocated
// and garbage collections, read at one moment or summed over regions.
type meter struct {
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: cpuTime(), alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// add adds the cost of the region from start to now.
func (m *meter) add(start meter) {
	now := readMeter()
	m.cpu += now.cpu - start.cpu
	m.alloc += now.alloc - start.alloc
	m.gc += now.gc - start.gc
}

// report records the cost per operation, ops being the operations the
// measured regions completed.
func (m meter) report(r *result, ops float64) {
	r.set("proc.cpu_us_per_op", float64(m.cpu.Microseconds())/ops)
	r.set("go.alloc_kb_per_op", float64(m.alloc)/1024/ops)
	r.set("go.gc_cycles", float64(m.gc))
}

// settle collects garbage and returns the freed memory to the OS between
// operations, outside their timing, so that one operation's garbage
// neither slows the next one nor raises the peak RSS.
func settle() { debug.FreeOSMemory() }

// cpuTime is the CPU time (user plus system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set size (rusage Maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
