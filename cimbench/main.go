// Command cimbench is the repository's benchmark. It drives the public
// cimflow API the way a user does — a design-space search, warm
// inference, open-loop serving and lane-batched inference — times those
// calls, checks every output, and prints one JSON result line.
//
//	bash cimbench/run.sh --workload infer-large --seed 1 --seconds 20 --trace 0
//
// Each workload loads some layers heavily and bypasses others, so an
// optimisation of one layer shows on the workload that exercises it and is
// predicted flat on the rest:
//
//	dse-search   compiler estimates + search + sim   (no serve, router, lanes)
//	infer-large  sim data plane, windowed scheduler  (compile only in set-up)
//	serve-open   artifact load, serve, cluster, per-inference fixed cost
//	batch-lanes  lane data plane, lane-chip memory
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries per-layer metrics from a traced run plus per-model probes,
// and the spans go to .bench_build/traces/. Both print every other
// measured figure, named by layer and model, above the result line: the
// per-workload timings (dse.search_s, infer.<model>_ms, serve.<level>.p50_ms
// and tail_ms, lanes.<model>_ms), latency tails, queue and route times,
// generator lateness and layer self times. The per-layer result names the
// workload's two models m1 and m2 (see workloadModels), since every
// workload reports every metric.
//
// --out writes the full result with the host shape and provenance;
// --compare prints the change against such a file, or that the two are
// not comparable because the host shape differs. steady.py measures the
// run-to-run spread and checks that the exact counters repeat.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"cimflow"
)

// metric is one named, measured figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report is everything one run measured. E2E and Layer hold the metrics
// named in BENCHMARK.json; Detail holds the figures that exist only on
// some workloads, under their layer and model names.
type report struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Host      host   `json:"host"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Mismatches counts wrong results among the failed operations.
	Mismatches int      `json:"mismatches"`
	Problems   []string `json:"problems,omitempty"`
	E2E        []metric `json:"end_to_end"`
	Layer      []metric `json:"per_layer"`
	Detail     []metric `json:"detail"`
}

func (r *report) all() []metric {
	return append(append(append([]metric(nil), r.E2E...), r.Layer...), r.Detail...)
}

// e2eUnits are the end-to-end metrics every workload reports untraced.
var e2eUnits = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mib", Unit: "MiB"},
	{Name: "time_ms", Unit: "ms"},
}

// layerUnits are the per-layer metrics every workload reports traced. A
// layer the workload bypasses reads 0 in its counts; every time here is
// measured on every workload, by the workload itself or by the probes.
var layerUnits = func() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{Name: n, Unit: unit})
		}
	}
	perModel := func(unit, prefix string) {
		add(unit, prefix+".m1", prefix+".m2")
	}
	add("ms", "compiler.estimate_ms")
	add("count", "compiler.estimates")
	perModel("ms", "compiler.compile_ms")
	perModel("count", "compiler.static_instrs")
	perModel("ms", "artifact.load_ms")
	add("count", "search.sims", "search.estimates")
	perModel("cycles", "sim.cycles")
	perModel("count", "sim.instructions")
	perModel("count", "sim.macs")
	perModel("B", "sim.noc_bytes")
	perModel("pJ", "sim.energy_pj")
	perModel("Mcycles/s", "sim.mcycles_per_s")
	add("ms", "core.fixed_ms")
	perModel("ms", "core.service_ms")
	perModel("ms", "core.first_infer_ms")
	perModel("MiB", "core.chip_mib")
	add("MiB", "core.chip_mib.m1.lanes8", "core.chip_mib.m2.lanes8")
	add("lanes", "core.lane_occupancy_mean")
	add("count", "core.lane_fallbacks")
	add("requests", "serve.low.batch_mean", "serve.mid.batch_mean", "serve.high.batch_mean")
	add("count", "serve.shed", "serve.expired")
	add("%", "trace.overhead_pct")
	add("count", "trace.spans")
	return out
}()

// workloadModels are the two models each workload runs, reported as m1
// and m2 in the per-layer result.
var workloadModels = map[string][2]string{
	"dse-search":  {"mobilenetv2", "efficientnetb0"},
	"infer-large": {"resnet18", "mobilenetv2"},
	"serve-open":  {"tinyresnet", "tinymobile"},
	"batch-lanes": {"mobilenetv2", "tinyresnet"},
}

var workloads = map[string]func(*bench) error{
	"dse-search":  runDSE,
	"infer-large": runInfer,
	"serve-open":  runServe,
	"batch-lanes": runLanes,
}

// bench is one run's state: its seed-derived inputs, its clock budget,
// the tracer (nil when untraced) and what it has measured so far.
type bench struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	rates   [3]float64
	tr      *tracer
	tmp     string
	models  [2]string
	rep     *report
	layer   map[string]float64
}

// sub derives an independent seed for one named use of the run seed.
func (b *bench) sub(tag string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	z := b.seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// inputs returns n distinct seeded inputs for a model's input shape.
func (b *bench) inputs(model string, shape cimflow.Shape, n int) []cimflow.Tensor {
	out := make([]cimflow.Tensor, n)
	for i := range out {
		out[i] = cimflow.SeededInput(shape, b.sub(fmt.Sprintf("input/%s/%d", model, i)))
	}
	return out
}

// e2e records an end-to-end metric.
func (b *bench) e2e(name string, v float64) {
	for i := range b.rep.E2E {
		if b.rep.E2E[i].Name == name {
			b.rep.E2E[i].Value = v
			return
		}
	}
	panic("cimbench: unlisted end-to-end metric " + name)
}

func (b *bench) detail(name string, v float64, unit, note string) {
	b.rep.Detail = append(b.rep.Detail, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// layerSet records a per-layer metric; role names m1/m2 stand for the
// workload's models.
func (b *bench) layerSet(name string, v float64) {
	if _, ok := b.layer[name]; !ok {
		panic("cimbench: unlisted per-layer metric " + name)
	}
	b.layer[name] = v
}

// role maps a model name to its per-layer role, m1 or m2.
func (b *bench) role(model string) string {
	if model == b.models[0] {
		return "m1"
	}
	if model == b.models[1] {
		return "m2"
	}
	panic("cimbench: model " + model + " is not one of the workload's models")
}

// fail counts a failed operation: an error, a shed or an expired request.
func (b *bench) fail(format string, args ...any) {
	b.rep.Failed++
	b.rep.Problems = append(b.rep.Problems, fmt.Sprintf(format, args...))
}

// mismatch counts n wrong results. Each is also a failed operation, and
// any one makes the run incorrect.
func (b *bench) mismatch(n int, format string, args ...any) {
	b.rep.Mismatches += n
	b.rep.Failed += n
	b.rep.Problems = append(b.rep.Problems, fmt.Sprintf(format, args...))
}

// timedOps runs op until the run's measuring time is spent (at least
// once), never starting an operation that would overrun by more than half
// its expected length.
func (b *bench) timedOps(op func(i int)) {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i > 0 && time.Since(start)+last/2 >= b.seconds {
			return
		}
		t0 := time.Now()
		op(i)
		last = time.Since(t0)
	}
}

// setup builds the workload's serving state reps times and records the
// median build time as setup_s. Every build but the last is torn down,
// and memory returned, before the next starts, so set-up is timed from a
// like state each time and leaves no extra resident memory behind.
func (b *bench) setup(reps int, build func(rep int) (teardown func(), err error)) (teardown func(), err error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		td, err := build(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.tr.record(0, 0, 0, "setup", start, time.Now())
		times = append(times, time.Since(start).Seconds())
		if rep == reps-1 {
			teardown = td
			break
		}
		td()
		freeMemory()
	}
	b.e2e("setup_s", median(times))
	b.detail("setup_s.reps", float64(reps), "count", fmt.Sprintf("set-up times %s s", fmtList(times)))
	return teardown, nil
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeapMiB is the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, ",")
}

// outputHash identifies an output tensor's shape and bytes.
func outputHash(t cimflow.Tensor) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%dx%d:", t.H, t.W, t.C)
	buf := make([]byte, len(t.Data))
	for i, v := range t.Data {
		buf[i] = byte(v)
	}
	h.Write(buf)
	return h.Sum64()
}

// timing records a series of operation times in ms and reports its
// median and tail under a name in the detail section.
func (b *bench) timing(name string, ms []float64) float64 {
	med, tl := median(ms), tailOf(ms)
	b.detail(name, med, "ms", fmt.Sprintf("median of %d", len(ms)))
	b.detail(strings.TrimSuffix(name, "_ms")+".tail_ms", tl.Value, "ms", fmt.Sprintf("p%g of %d", tl.P, tl.N))
	return med
}

// overhead records the tracing overhead from operations run alternately
// traced and untraced within the same run: the geometric mean, over the
// workload's operation kinds, of the traced median over the untraced one.
func (b *bench) overhead(traced, untraced [][]float64) {
	if b.tr == nil {
		return
	}
	var ratios []float64
	for k := range traced {
		if len(traced[k]) > 0 && len(untraced[k]) > 0 {
			ratios = append(ratios, median(traced[k])/median(untraced[k]))
		}
	}
	if len(ratios) > 0 {
		b.layerSet("trace.overhead_pct", 100*(geomean(ratios)-1))
	}
}

// markPeakRSS records the process's resident high-water mark once the
// timed traffic ends, so it covers set-up and traffic but not the
// correctness checks and probes that follow.
func (b *bench) markPeakRSS() error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	b.e2e("peak_rss_mib", rss)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: dse-search, infer-large, serve-open or batch-lanes")
	seed := flag.Uint64("seed", 1, "seed every input, arrival time, model mix and search derives from")
	seconds := flag.Int("seconds", 20, "measuring time of the run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rates := flag.String("rates", "25,50,80", "serve-open arrival rates low,mid,high in requests/s")
	out := flag.String("out", "", "also write the full result as JSON to this file")
	cmp := flag.String("compare", "", "compare against a full result written earlier with -out")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "cimbench: need -workload (dse-search, infer-large, serve-open, batch-lanes), -seconds >= 1, -trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimbench:", err)
		return 1
	}
	b := &bench{
		ctx:     context.Background(),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		models:  workloadModels[*workload],
		rep:     &report{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Host: hostInfo(root)},
		layer:   make(map[string]float64),
	}
	if _, err := fmt.Sscanf(*rates, "%g,%g,%g", &b.rates[0], &b.rates[1], &b.rates[2]); err != nil {
		fmt.Fprintln(os.Stderr, "cimbench: -rates wants three numbers low,mid,high:", err)
		return 2
	}
	b.rep.E2E = append([]metric(nil), e2eUnits...)
	for _, m := range layerUnits {
		b.layer[m.Name] = 0
	}
	if b.rep.Trace {
		b.tr = newTracer()
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err = os.MkdirAll(buildDir, 0o755); err == nil {
		b.tmp, err = os.MkdirTemp(buildDir, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimbench:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)

	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "cimbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.tr != nil {
		if err := b.finishTrace(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "cimbench:", err)
			return 1
		}
	}
	for _, m := range layerUnits {
		m.Value = b.layer[m.Name]
		b.rep.Layer = append(b.rep.Layer, m)
	}
	if b.rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "cimbench: no operation was attempted")
		return 1
	}
	if !b.rep.Trace {
		for _, m := range b.rep.E2E {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "cimbench: end-to-end metric %s measured %v\n", m.Name, m.Value)
				return 1
			}
		}
	}
	printReport(b.rep)
	if *out != "" {
		data, err := json.MarshalIndent(b.rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cimbench: write result:", err)
			return 1
		}
	}
	if *cmp != "" {
		if err := compare(os.Stdout, b.rep, *cmp); err != nil {
			fmt.Fprintln(os.Stderr, "cimbench: compare:", err)
			return 1
		}
	}
	return printResult(b.rep)
}

// finishTrace turns the spans into layer self times and writes them out.
func (b *bench) finishTrace(path string) error {
	lts := b.tr.selfTimes()
	total := 0
	for _, lt := range lts {
		total += lt.Count
		b.detail("self_ms."+lt.Name, lt.MeanSelfMs, "ms",
			fmt.Sprintf("mean of %d spans; mean duration %.4f ms", lt.Count, lt.MeanMs))
	}
	b.layerSet("trace.spans", float64(total))
	if err := b.tr.write(path); err != nil {
		return err
	}
	b.detail("trace.file", float64(total), "spans", path)
	return nil
}

func printReport(r *report) {
	h := r.Host
	fmt.Printf("cimbench %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s source=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.SourceSHA256[:16])
	section := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-36s %16.4f %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	if !r.Trace {
		section("end to end:", r.E2E)
	} else {
		models := workloadModels[r.Workload]
		section("per layer (m1, m2 = "+strings.Join(models[:], ", ")+"):", r.Layer)
	}
	d := append([]metric(nil), r.Detail...)
	sort.SliceStable(d, func(i, j int) bool { return d[i].Name < d[j].Name })
	section("detail:", d)
	fmt.Printf("attempted=%d failed=%d mismatches=%d\n", r.Attempted, r.Failed, r.Mismatches)
	for i, p := range r.Problems {
		if i == 20 {
			fmt.Printf("PROBLEM: ... and %d more\n", len(r.Problems)-i)
			break
		}
		fmt.Println("PROBLEM:", p)
	}
}

// printResult prints the one-line result the benchmark contract defines
// and returns the exit code.
func printResult(r *report) int {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.E2E
	if r.Trace {
		ms = r.Layer
	}
	metrics := make(map[string]val, len(ms))
	for _, m := range ms {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Mismatches == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
