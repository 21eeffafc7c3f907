// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time against the commands users run (dragprof, draganalyze
// and dragserved over HTTP), checks their outputs against its own
// computations, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
// with -trace 1 the benchmark instead times calls into each layer's public
// functions from its own code, records spans, and reports the per-layer
// figures and its own tracing overhead. Every workload reports every
// metric of the set it runs, each measured on that workload's own work.
// -steady k runs a workload k times and prints each metric's median,
// quartiles, min and max. -short runs one small round of a workload with
// every correctness check.
//
// Usage (from the repository root, after building the commands into
// -bin; perfbench/run.sh does both):
//
//	perfbench -workload profile-compute|profile-alloc|serve-mixed
//	          -seed n -seconds s -trace 0|1 [-steady k] [-short]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run())
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	bin      string
	work     string
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: its counts and metrics, facts
// printed for reference only, and every correctness problem it found.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
	problems          []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, info: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 50 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEndUnits and layerUnits are BENCHMARK.json's end-to-end and
// per-layer metrics. The result line holds exactly one of these sets.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_s":         "ops/s",
	"write_ms":      "ms",
	"read_ms":       "ms",
	"peak_rss_mb":   "MB",
	"bytes_per_obj": "B/obj",
}

var layerUnits = map[string]string{
	"mj.compile_ms":             "ms",
	"vm.run_ms":                 "ms",
	"vm.ns_per_insn":            "ns/insn",
	"vm.instructions":           "count",
	"profile.run_ms":            "ms",
	"profile.ns_per_use":        "ns/use",
	"profile.use_events":        "count",
	"profile.trailers":          "count",
	"gc.collections":            "count",
	"gc.marked":                 "count",
	"profile.encode_ms":         "ms",
	"profile.gzip_ms":           "ms",
	"profile.log_bytes_gz":      "B",
	"profile.decode_krec_s":     "krec/s",
	"drag.aggregate_ns_per_rec": "ns/rec",
	"drag.parallel_ms":          "ms",
	"drag.compare_ms":           "ms",
	"report.render_ms":          "ms",
	"store.ingest_ms":           "ms",
	"store.compact_ms_per_run":  "ms/run",
	"store.report_ms":           "ms",
	"store.get_us":              "us",
	"store.stats_us":            "us",
	"store.open_ms":             "ms",
	"trace.overhead_pct":        "%",
}

var workloads = map[string]func(cfg *config) (*outcome, error){
	"profile-compute": func(cfg *config) (*outcome, error) { return profileWorkload(cfg, computePrograms) },
	"profile-alloc":   func(cfg *config) (*outcome, error) { return profileWorkload(cfg, allocPrograms) },
	"serve-mixed":     serveWorkload,
}

func run() int {
	if len(os.Args) > 1 && os.Args[1] == measureArg {
		return measureMain(os.Args[2:])
	}
	cfg := &config{}
	var traceN, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: profile-compute, profile-alloc or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds (whole rounds)")
	flag.IntVar(&traceN, "trace", 0, "1: per-layer traced run instead of the end-to-end run")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.BoolVar(&cfg.short, "short", false, "one small round with every correctness check")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built dragprof, draganalyze and dragserved")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for logs and stores")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceN == 1
	wl, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || (traceN != 0 && traceN != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload profile-compute|profile-alloc|serve-mixed -seed n -seconds s -trace 0|1 [-steady k] [-short]")
		return 2
	}
	for _, name := range []string{"dragprof", "draganalyze", "dragserved"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, name)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the commands first; see perfbench/run.sh)\n", err)
			return 1
		}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work
	printJSON(map[string]any{"environment": environment(cfg)})

	if steady > 0 {
		return runSteady(cfg, wl, steady)
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return finish(cfg, out)
}

// finish prints the outcome's reference facts and problems, then the
// result line, last. A result that lacks a metric of the set the run
// reports, or holds another, is an error of the benchmark and is not
// printed.
func finish(cfg *config, out *outcome) int {
	if err := checkMetricSet(out.metrics, metricSet(cfg)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(out.info) > 0 {
		printJSON(map[string]any{"reference": out.info})
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			return 1
		}
	}
	printJSON(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	return 0
}

// runSteady runs the workload k times and prints, per metric, the median,
// quartiles, min and max over the runs: the evidence behind each bound.
func runSteady(cfg *config, wl func(*config) (*outcome, error), k int) int {
	values := map[string][]float64{}
	units := map[string]string{}
	correct, sameShare := true, true
	var first *outcome
	base := cfg.work
	for i := 0; i < k; i++ {
		c := *cfg
		c.seed = cfg.seed + int64(i)
		c.work = filepath.Join(base, strconv.Itoa(i))
		if err := os.MkdirAll(c.work, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out, err := wl(&c)
		if err == nil {
			err = checkMetricSet(out.metrics, metricSet(cfg))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		correct = correct && len(out.problems) == 0
		if first == nil {
			first = out
		}
		// The failed share must be identical, not merely close, run to run.
		sameShare = sameShare && out.failed*first.attempted == first.failed*out.attempted
		for name, m := range out.metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		printJSON(map[string]any{"run": i, "seed": c.seed, "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics})
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	type spread struct {
		Unit      string  `json:"unit"`
		Median    float64 `json:"median"`
		Q1        float64 `json:"q1"`
		Q3        float64 `json:"q3"`
		Min       float64 `json:"min"`
		Max       float64 `json:"max"`
		IQROverMd float64 `json:"iqr_over_median"`
	}
	summary := map[string]spread{}
	fmt.Printf("%-32s %-8s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, n := range names {
		vs := values[n]
		s := sorted(vs)
		sp := spread{Unit: units[n], Median: median(vs), Min: s[0], Max: s[len(s)-1]}
		if q1, _, q3, err := quartiles(vs); err == nil {
			sp.Q1, sp.Q3 = q1, q3
			if sp.Median != 0 {
				sp.IQROverMd = (q3 - q1) / math.Abs(sp.Median)
			}
		}
		summary[n] = sp
		fmt.Printf("%-32s %-8s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f\n", n, sp.Unit, sp.Median, sp.Q1, sp.Q3, sp.Min, sp.Max, sp.IQROverMd)
	}
	printJSON(map[string]any{"steady": summary, "runs": k, "correct": correct, "failed_shares_identical": sameShare})
	return 0
}

// metricSet is the set of metrics a run reports.
func metricSet(cfg *config) map[string]string {
	if cfg.trace {
		return layerUnits
	}
	return endToEndUnits
}

// checkMetricSet reports a metric missing from got, one got has beyond
// want, or one in another unit.
func checkMetricSet(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s is in %s, not %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in the reported set", name)
		}
	}
	return nil
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(data))
}

// environment is recorded with every result: what ran, where, on what.
func environment(cfg *config) map[string]any {
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"short":       cfg.short,
		"commit":      commitID(),
		"source_hash": sourceHash("."),
		"go_version":  runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}
