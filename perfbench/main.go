// Command smflperf is the SMFL benchmark: workloads that measure the
// paper's fit and the smfld imputation server as their users see them, with
// a traced mode that breaks each result down by layer, the out-of-core
// stochastic fit included. perfbench/run.sh builds and runs it; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"github.com/spatialmf/smfl/internal/mat"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fit-paper":   fitPaper,
	"serve-point": servePoint,
}

// endToEnd and perLayer are the metric names with their units, exactly as
// BENCHMARK.json declares them. Every workload reports every name: an
// untraced run the first list, a traced run the second.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"fit_s":         "s",
	"impute_rms":    "normalized",
	"alloc_mb":      "MB",
	"peak_rss_mb":   "MB",
	"p50_ms":        "ms",
	"goodput_rps":   "1/s",
	"success_ratio": "ratio",
}

var perLayer = map[string]string{
	"spatial.build_ms":                "ms",
	"spatial.edges":                   "count",
	"spatial.muldw_ms":                "ms",
	"kmeans.run_ms":                   "ms",
	"kmeans.iters":                    "count",
	"mat.projectmul_ms":               "ms",
	"mat.projectmul_mflop":            "Mflop_computed",
	"mat.projectmul_mb":               "MB_computed",
	"mat.mulbtobs_ms":                 "ms",
	"mat.mulbtobs_mflop":              "Mflop_computed",
	"mat.mulbtobs_mb":                 "MB_computed",
	"mat.frob2mul_ms":                 "ms",
	"mat.frob2mul_mflop":              "Mflop_computed",
	"mat.frob2mul_mb":                 "MB_computed",
	"mat.workers":                     "count",
	"mat.batches_per_epoch":           "count",
	"core.iters":                      "count",
	"core.iter_ms_est":                "ms",
	"core.epoch_ms":                   "ms",
	"core.dense_epoch_ms":             "ms",
	"store.write_ms":                  "ms",
	"store.open_ms":                   "ms",
	"store.shard_maps_per_epoch":      "count",
	"store.evictions_per_epoch":       "count",
	"store.peak_resident_mb":          "MB",
	"serve.handler_p50_ms":            "ms",
	"serve.handler_p99_ms":            "ms",
	"serve.batch_rows_mean":           "rows",
	"serve.coalesced_share":           "ratio",
	"serve.admission_rejections":      "count",
	"serve.timeouts":                  "count",
	"serve.degraded":                  "count",
	"serve.panics":                    "count",
	"core.foldin_us_per_row":          "us",
	"core.foldin_maxbatch_us_per_row": "us",
	"core.foldin_batch_ms":            "ms",
	"core.foldin_batch_dev_max":       "normalized",
	"loadgen.latency_p99_ms":          "ms",
	"loadgen.lag_p99_ms":              "ms",
	"loadgen.conn_wait_p99_ms":        "ms",
	"http.service_p50_ms":             "ms",
	"trace.overhead_ratio":            "ratio",
}

// benchWorkers is the internal/mat pool size every workload runs with. On a
// small shared host a two-worker kernel waits for whichever CPU the host
// delays: identical work spread ±40% between repeats with two workers and
// ±8% with one (2-vCPU box).
const benchWorkers = 1

// run is the state of one benchmark invocation.
type run struct {
	name    string
	seed    int64
	seconds float64
	work    string // temporary directory inside the checkout, removed at exit
	tr      *Tracer
	log     io.Writer

	attempted, failed int
	metrics           map[string]float64
}

func (r *run) put(name string, v float64) { r.metrics[name] = v }

// fail counts one failed operation and says why on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "smflperf: %s: FAILED: %s\n", r.name, fmt.Sprintf(format, args...))
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "smflperf: %s: %s\n", r.name, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "smflperf: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smflperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root; temporary files and traces go under <root>/.bench_build")
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	out := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "work-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	mat.SetWorkers(benchWorkers)
	env := environment()
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stderr, "smflperf: env %s\n", envJSON)

	r := &run{
		name: *workload, seed: *seed, seconds: float64(*seconds), work: work,
		tr: newTracer(*trace == 1), log: stderr, metrics: make(map[string]float64),
	}
	if err := drive(r); err != nil {
		return err
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		path, err := writeTrace(filepath.Join(out, "traces"), r.name, r.seed, env, r.tr.Spans())
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stderr, "smflperf: trace written to %s\n", path)
	} else {
		r.put("peak_rss_mb", peakRSSMB())
		r.put("success_ratio", 1-float64(r.failed)/float64(r.attempted))
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, name := range sortedKeys(want) {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (value %v)", name, v)
		}
		res.Metrics[name] = metricOut{Value: v, Unit: want[name]}
		fmt.Fprintf(stderr, "smflperf: %-14s %-28s %14.6g %s\n", r.name, name, v, want[name])
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func workloadNames() []string {
	return sortedKeys(workloads)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Env is the machine record printed with every result and stored in every
// trace.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MatWorkers int    `json:"mat_workers"`
}

func environment() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MatWorkers: mat.Workers(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark. The process runs
// one workload only, so this is that workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
