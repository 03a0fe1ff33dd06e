// Command bench is navaug's benchmark: four named workloads covering the
// paths a user sees (serving distances, serving routes, building a
// snapshot, reproducing the paper), each measured end to end in its own
// process, with an optional traced run that reports per-layer numbers and
// the tracing overhead.  Build and run it from the repository root with
// bench/run.sh; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"navaug/internal/dist"
)

// toyN is the graph size of the smoke-test runs.
const toyN = 4096

// workload is one named set of inputs and the way to measure it.
type workload struct {
	name    string
	seed    uint64              // default input seed
	prep    func(*worker) error // untimed preparation in its own process; nil if none
	measure func(*worker) error
}

var (
	distTree = &serveSpec{family: "powerlaw-tree", n: 1 << 19, mode: "dist", rate: 5000, batch: 256}
	routeHub = &serveSpec{family: "powerlaw", n: 1 << 16, mode: "route", rate: 1000, batch: 32}
	expander = &buildSpec{family: "regular", n: 1 << 12, oracle: dist.PolicyTwoHopPacked}
	suite    = &suiteSpec{
		ids:   []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E13"},
		toy:   []string{"E1"},
		scale: 0.05,
	}
)

var workloads = []*workload{
	{name: "serve-dist-tree", seed: 1, prep: distTree.prep, measure: distTree.measure},
	{name: "serve-route-hub", seed: 1, prep: routeHub.prep, measure: routeHub.measure},
	{name: "build-expander", seed: 1, measure: expander.measure},
	{name: "paper-suite", seed: 20070610, measure: suite.measure},
}

// worker carries one measuring run's settings and collects its result.
type worker struct {
	wl      *workload
	seed    uint64
	seconds time.Duration
	toy     bool
	out     string  // directory for the snapshot and trace files
	tr      *tracer // nil in untraced runs
	root    int64   // id of the run's root span
	res     *result
}

func (w *worker) snapPath() string { return filepath.Join(w.out, w.wl.name+".navsnap") }

// measure runs one workload in this process.
func measure(wl *workload, seed uint64, seconds time.Duration, traced, toy bool, out string) (*result, error) {
	w := &worker{wl: wl, seed: seed, seconds: seconds, toy: toy, out: out,
		res: &result{Workload: wl.name, Seed: seed, Traced: traced, Metrics: make(map[string]float64)}}
	if traced {
		w.tr = newTracer()
		// A layer the workload never enters reports zero work.
		for _, name := range perLayer {
			w.res.set(name, 0)
		}
	}
	root := w.tr.begin("run", 0)
	w.root = root.id
	err := wl.measure(w)
	root.end()
	if err != nil {
		return nil, err
	}
	w.res.set("peak_rss_mb", peakRSSMB())
	if w.res.Attempted > 0 {
		w.res.set("fail_frac", float64(w.res.Failed)/float64(w.res.Attempted))
	}
	w.res.Correct = len(w.res.Problems) == 0 && w.res.Failed == 0
	if traced {
		spans := w.tr.finish()
		w.res.Trace = byName(spans)
		if err := writeTrace(filepath.Join(out, wl.name+".trace.json"), wl.name, spans); err != nil {
			return nil, err
		}
	}
	return w.res, nil
}

func main() {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := flag.Uint64("seed", 0, "input seed (0: each workload's default)")
	secs := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics and tracing overhead")
	child := flag.String("child", "", "internal: run one step (prep or measure) of one workload in this process")
	flag.Parse()
	var sel []*workload
	for _, wl := range workloads {
		if *workloadFlag == "all" || *workloadFlag == wl.name {
			sel = append(sel, wl)
		}
	}
	if len(sel) == 0 || flag.NArg() > 0 || *secs < 1 || (*trace != 0 && *trace != 1) || (*child != "" && len(sel) != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := filepath.Join("bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	seconds := time.Duration(*secs) * time.Second
	if *child != "" {
		os.Exit(runChild(*child, sel[0], *seed, seconds, *trace == 1, out))
	}
	os.Exit(runAll(sel, *seed, *secs, *trace == 1, out))
}

// runChild is the body of a child process: prep builds the workload's
// inputs, measure prints its result as one JSON line.
func runChild(role string, wl *workload, seed uint64, seconds time.Duration, traced bool, out string) int {
	var err error
	switch {
	case role == "prep" && wl.prep != nil:
		err = wl.prep(&worker{wl: wl, seed: seed, seconds: seconds, out: out})
	case role == "measure":
		var res *result
		if res, err = measure(wl, seed, seconds, traced, false, out); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	default:
		err = fmt.Errorf("no %s step", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", wl.name, role, err)
		return 1
	}
	return 0
}

// document is the JSON record of one workload's invocation.
type document struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  int     `json:"seconds"`
	Machine  machine `json:"machine"`
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced,omitempty"`
	// TraceOverhead is (traced − untraced) / untraced per end-to-end metric.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runAll measures each selected workload in child processes, writes one
// document per workload to out, prints a table per workload and then the
// summary line.
func runAll(sel []*workload, seed uint64, secs int, traced bool, out string) int {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(len(sel))*170*time.Second)
	defer cancel()
	m := fingerprint(ctx)
	sum := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, wl := range sel {
		s := seed
		if s == 0 {
			s = wl.seed
		}
		doc, err := runWorkload(ctx, wl, s, secs, traced, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		doc.Machine = m
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(out, wl.name+".json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		printTable(doc)
		names, res := endToEnd, doc.Untraced
		if traced {
			names, res = perLayer, doc.Traced
		}
		for _, r := range []*result{doc.Untraced, doc.Traced} {
			if r != nil {
				sum.Correct = sum.Correct && r.Correct
				sum.Attempted += r.Attempted
				sum.Failed += r.Failed
			}
		}
		for _, name := range names {
			v, ok := res.Metrics[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s: no value for %s\n", wl.name, name)
				sum.Correct = false
				continue
			}
			key := name
			if len(sel) > 1 {
				key = wl.name + "/" + name
			}
			sum.Metrics[key] = metricValue{v, unitOf(name)}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !sum.Correct {
		return 1
	}
	return 0
}

// runWorkload runs the workload's untimed preparation, then its untraced
// measurement and, when traced, its traced measurement, each in a fresh
// child process so that peak RSS and heap state do not carry over.
func runWorkload(ctx context.Context, wl *workload, seed uint64, secs int, traced bool, out string) (*document, error) {
	args := func(step, trace string) []string {
		return []string{"-workload", wl.name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(secs),
			"-child", step, "-trace", trace}
	}
	defer os.Remove(filepath.Join(out, wl.name+".navsnap"))
	if wl.prep != nil {
		if _, err := spawn(ctx, args("prep", "0")); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
	}
	doc := &document{Workload: wl.name, Seed: seed, Seconds: secs}
	var err error
	if doc.Untraced, err = spawnMeasure(ctx, args("measure", "0")); err != nil {
		return nil, err
	}
	if !traced {
		return doc, nil
	}
	if doc.Traced, err = spawnMeasure(ctx, args("measure", "1")); err != nil {
		return nil, err
	}
	doc.TraceOverhead = make(map[string]float64)
	for _, name := range endToEnd {
		if u, ok := doc.Untraced.Metrics[name]; ok && u != 0 {
			doc.TraceOverhead[name] = doc.Traced.Metrics[name]/u - 1
		}
	}
	return doc, nil
}

// spawn re-executes this program with args and waits for it; its standard
// error passes through and its standard output is returned.
func spawn(ctx context.Context, args []string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err = cmd.Run()
	return stdout.Bytes(), err
}

func spawnMeasure(ctx context.Context, args []string) (*result, error) {
	b, err := spawn(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("measure: reading result: %w", err)
	}
	return &res, nil
}

// printTable prints the document as aligned tables with units.
func printTable(doc *document) {
	fmt.Printf("\n== %s  seed %d  %d s  %s  GOMAXPROCS %d  %s\n", doc.Workload, doc.Seed, doc.Seconds,
		doc.Machine.GoVersion, doc.Machine.GOMAXPROCS, doc.Machine.CPUModel)
	section := func(title string, res *result, first []string) {
		fmt.Printf("-- %s: correct %v, %d of %d operations failed\n", title, res.Correct, res.Failed, res.Attempted)
		for _, p := range res.Problems {
			fmt.Printf("   problem: %s\n", p)
		}
		rest := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			if !slices.Contains(first, name) {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		for _, name := range slices.Concat(first, rest) {
			if v, ok := res.Metrics[name]; ok {
				fmt.Printf("   %-34s %14.6g  %s\n", name, v, unitOf(name))
			}
		}
	}
	section("untraced", doc.Untraced, endToEnd)
	if doc.Traced == nil {
		return
	}
	section("traced", doc.Traced, perLayer)
	fmt.Println("-- tracing overhead on end-to-end metrics")
	for _, name := range endToEnd {
		if v, ok := doc.TraceOverhead[name]; ok {
			fmt.Printf("   %-34s %+13.1f%%\n", name, 100*v)
		}
	}
	fmt.Println("-- self time by span")
	type row struct {
		name string
		lt   *layerTime
	}
	var rows []row
	for name, lt := range doc.Traced.Trace {
		rows = append(rows, row{name, lt})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lt.SelfS > rows[j].lt.SelfS })
	for _, r := range rows {
		fmt.Printf("   %-34s %9d spans %12.4f s self %6.1f%%\n", r.name, r.lt.Count, r.lt.SelfS, r.lt.SelfPct)
	}
}

// machine identifies where and from what a result was measured.
type machine struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func fingerprint(ctx context.Context) machine {
	m := machine{GitRev: "unknown", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Kernel: "unknown"}
	if b, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}
