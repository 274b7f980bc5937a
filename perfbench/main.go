// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	go run . --workload deploy-small --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing but the
// benchmark's step clock around the program; --trace 1 measures the
// per-layer metrics by timing calls into each layer's public functions
// from the benchmark's own wrappers. The line before the result carries
// the provenance of the run, the sample count behind every metric, the
// error rate (failed over attempted) and, untraced, the step time's p90.
// NOTES.md defines each workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workDir holds the run's temporary files (loop workload).
	workDir string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) (outcome, error){
	"deploy-small": func(o options, r *report) (outcome, error) { return runDeploy(deploySmall(), o, r) },
	"deploy-mixed": func(o options, r *report) (outcome, error) { return runDeploy(deployMixed(), o, r) },
	"loop":         runLoop,
}

// outcome counts a run's operations. correct is false when a
// correctness check failed; failed also counts operations that ran
// correctly but missed their deadline (a loop cycle that never adapted).
type outcome struct {
	attempted, failed int
	correct           bool
}

// endToEnd and perLayer list every metric a run reports, with its unit;
// they mirror BENCHMARK.json. A layer a workload does not run reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"step_us_p50", "us"}, {"sim_speedup", "x"},
	{"adapt_ms_p50", "ms"}, {"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"step_us_p90", "us"},
	{"tuner.begin_ns.p50", "ns"}, {"tuner.begin_ns.p90", "ns"},
	{"tuner.end_ns.p50", "ns"}, {"tuner.end_ns.p90", "ns"},
	{"tuner.begin_share", "ratio"}, {"tuner.overhead_ratio", "ratio"},
	{"tuner.begin_to_walk_ratio", "ratio"},
	{"features.extract_ns", "ns"}, {"core.project_ns", "ns"},
	{"ctree.walk_ns", "ns"}, {"dtree.walk_ns", "ns"},
	{"raja.exec_ns", "ns"}, {"raja.untuned_step_us", "us"},
	{"launch.per_step", "count"}, {"launch.small_share", "ratio"},
	{"launch.list_share", "ratio"}, {"step.allocs", "count"},
	{"telemetry.drop_ratio", "ratio"}, {"flight.drop_ratio", "ratio"},
	{"telemetry.poll_ms.first", "ms"}, {"telemetry.poll_ms.last", "ms"},
	{"telemetry.poll_rows", "count"}, {"telemetry.spool_bytes", "bytes"},
	{"client.flush_ms", "ms"}, {"client.refresh_ms", "ms"},
	{"client.refresh_noop_share", "ratio"},
	{"server.telemetry_post_ms", "ms"}, {"server.model_get_ms", "ms"},
	{"server.model_put_ms", "ms"}, {"server.http_errors", "count"},
	{"trainer.step_ms", "ms"}, {"trainer.idle_step_ms", "ms"},
	{"trainer.train_ms", "ms"}, {"trainer.retrains", "count"},
	{"trainer.publishes", "count"}, {"trainer.publish_ratio", "ratio"},
	{"loop.detect_ms", "ms"}, {"loop.retrain_ms", "ms"},
	{"loop.distribute_ms", "ms"}, {"loop.adapted_share", "ratio"},
	{"app.lateness_ms_p90", "ms"}, {"bench.trace_overhead", "ratio"},
	{"error_rate", "ratio"},
}

type metricDef struct{ name, unit string }

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: deploy-small, deploy-mixed or loop")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	res, rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	errRate := metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio"}
	info := map[string]any{"provenance": provenance(o), "samples": rep.samples, "error_rate": errRate}
	// The step time's p90 is printed with every untraced run but not
	// gated: see NOTES.md.
	if m, ok := rep.metrics["step_us_p90"]; ok && !o.trace {
		info["step_us_p90"] = m
	}
	enc.Encode(info) //apollo:errok the result line below reports the write failure
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and checks that it reported every metric
// its mode requires.
func run(o options) (*result, *report, error) {
	runWorkload, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	if o.workDir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		o.workDir = dir
	}
	rep := newReport()
	out, err := runWorkload(o, rep)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok {
			got = metric{Unit: m.unit}
			rep.samples[m.name] = 0
		}
		if got.Unit != m.unit {
			return nil, nil, fmt.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
		res.Metrics[m.name] = got
	}
	if out.attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	return res, rep, nil
}

// provenance describes where and how a run was measured.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the working
// directory is a git checkout; an exported tree has none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	data, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
