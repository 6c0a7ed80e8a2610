// Command perfbench is the repository benchmark. It runs one workload
// (large, hot or serve) for a fixed time over inputs generated from a
// seed, checks every operation's output against an independent DOM
// reference, and prints the result as one JSON object on the last line
// of standard output.
//
//	perfbench -workload large -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run instead times each layer by ablation under benchmark-side spans
// and reports the per-layer metrics. See README.md for what each
// workload and metric is for. run.sh builds this program and jsonskid
// from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one reported metric. Both lists must match
// BENCHMARK.json (checked by TestMetricsMatchContract). Tail latencies
// are printed with each run but are not contract metrics: on the 2-vCPU
// host they did not repeat within the bound (see README.md).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"ops_s", "1/s", "higher"},
	{"mb_s", "MB/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"index_mem_ratio", "ratio", "lower"},
	{"sidecar_disk_ratio", "ratio", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"bits.classify_ns_per_kb", "ns/KB", "lower"},
	{"stream.index_build_ns_per_kb", "ns/KB", "lower"},
	{"stream.words_per_kb", "words/KB", "lower"},
	{"core.descent_ns_per_kb", "ns/KB", "lower"},
	{"core.lazy_classify_ns_per_kb", "ns/KB", "lower"},
	{"ff.g1_bytes", "bytes", "higher"},
	{"ff.g2_bytes", "bytes", "higher"},
	{"ff.g3_bytes", "bytes", "higher"},
	{"ff.g4_bytes", "bytes", "higher"},
	{"ff.g5_bytes", "bytes", "higher"},
	{"ff.scanned_bytes", "bytes", "lower"},
	{"ff.skip_ratio", "ratio", "higher"},
	{"ff.identity_gap_bytes", "bytes", "lower"},
	{"ff.filter_identity_gap_bytes", "bytes", "lower"},
	{"filter.probe_ns_per_kb", "ns/KB", "lower"},
	{"jsonpath.compile_us", "us", "lower"},
	{"sink.stream_ns_per_match", "ns", "lower"},
	{"nav.lookup_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.warm_ms", "ms", "lower"},
	{"server.handler_p50_ms", "ms", "lower"},
	{"server.record_p50_us", "us", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.cache_hit_rate", "ratio", "higher"},
	{"server.outside_engine_share", "ratio", "lower"},
	{"server.generator_lag_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"reconcile.engine_residual_frac", "ratio", "lower"},
	{"reconcile.serve_residual_frac", "ratio", "lower"},
}

// config is one run's parameters. The sizes default to the contract
// run's; tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: sources for provenance
	work     string // scratch directory for catalogs and trace output
	jsonskid string // daemon binary, for serve and the traced server probe

	largeBytes int // per large-workload document
	hotBytes   int // per hot-corpus document
	bodyBytes  int // per serve request body
	rates      []float64
	corrupt    bool // tests: perturb one reference so its ops must fail
}

func defaultConfig() config {
	return config{
		largeBytes: 16 << 20,
		hotBytes:   512 << 10,
		bodyBytes:  64 << 10,
		rates:      []float64{25, 50, 100, 200, 400, 700, 1000},
	}
}

// report is what a run produces: op counts, metric values, and the
// human-readable rows printed before the result line.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
	inputs            []inputSummary
	detail            any // written to the trace file in traced runs
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"large": runLarge,
	"hot":   runHot,
	"serve": runServe,
}

func main() {
	cfg := defaultConfig()
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: large, hot or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.jsonskid, "jsonskid", ".bench_build/bin/jsonskid", "jsonskid binary")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want large, hot or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var err error
	if cfg.work, err = filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	// The scratch directory holds only this run's catalogs and sidecars.
	defer os.RemoveAll(cfg.work)
	prov := provenance(cfg)
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	res, err := finish(cfg, rep)
	if err != nil {
		return err
	}
	prov.Inputs = rep.inputs
	printProvenance(prov)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if cfg.trace {
		path := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeJSON(path, map[string]any{"provenance": prov, "detail": rep.detail, "metrics": res.Metrics}); err != nil {
			return err
		}
		fmt.Println("trace written to", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finish checks that the run produced exactly the declared metrics and
// renders the result, printing the metric table with directions.
func finish(cfg config, rep *report) (result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	res.Correct = rep.attempted > 0 && rep.failed == 0
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("workload %s did not produce metric %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	// A traced run also computes the set-up and index-size figures on
	// its way; only the untraced run reports them.
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	var extra []string
	for k := range rep.metrics {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload %s produced undeclared metrics %v", cfg.workload, extra)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t attempted=%d failed=%d fail_frac=%.6f\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.attempted, rep.failed,
		float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %-9s (%s is better)\n", d.name, rep.metrics[d.name], d.unit, d.better)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// deadline is the end of a measurement window that starts now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
