// Command benchmark is the repository's benchmark: it builds the
// system from its public constructors, drives one workload from one
// generator process, checks the outputs, and prints every metric by
// name and unit. See README.md in this directory.
//
//	go run . --workload fleet-rounds --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; op_ms is the time of the workload's own
// unit of work (README.md has the table). The workload-specific figures
// the issue names (rounds_per_s, recommend_p50_ms, reconstruct_s,
// probes_max, stretch, and the open-loop percentiles) are printed in
// the environment record under "ungated".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"op_ms", "ms"},
}

// perLayer lists the traced run's metrics. Every traced run reports all
// of them; a layer the workload does not exercise reports 0. Counts
// and busy times are per operation of the workload: a round, a
// recommend read, or one reconstruction.
var perLayer = []metricDef{
	{"netboard.cluster.post_us_p50", "us"},
	{"netboard.cluster.post_us_p99", "us"},
	{"netboard.cluster.lookup_us_p50", "us"},
	{"netboard.cluster.lookup_us_p99", "us"},
	{"netboard.cluster.fanout_per_round", "count"},
	{"netboard.cluster.self_us_p50", "us"},
	{"netboard.client.rtt_us_p50", "us"},
	{"netboard.client.rtt_us_p99", "us"},
	{"netboard.client.requests", "count/op"},
	{"netboard.client.blocked_frac", "frac"},
	{"netboard.client.retries", "count"},
	{"netboard.client.conns_dialed", "count"},
	{"netboard.client.conn_reuse_ratio", "ratio"},
	{"netboard.server.handle_us_p50", "us"},
	{"netboard.server.handle_us_p99", "us"},
	{"netboard.server.dedupe_hit_ratio", "ratio"},
	{"wire.bytes_per_round", "bytes"},
	{"wire.bytes_per_request", "bytes"},
	{"runtime.heap_live_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.alloc_kb_per_op", "KB/op"},
	{"billboard.calls", "count/op"},
	{"billboard.post_ms", "ms/op"},
	{"billboard.read_ms", "ms/op"},
	{"billboard.tally_hit_ratio", "ratio"},
	{"billboard.tally_rebuild_ms", "ms/op"},
	{"core.zeroradius_ms", "ms/op"},
	{"core.zeroradius_calls", "count/op"},
	{"core.smallradius_ms", "ms/op"},
	{"core.smallradius_calls", "count/op"},
	{"core.largeradius_ms", "ms/op"},
	{"core.largeradius_calls", "count/op"},
	{"core.coalesce_ms", "ms/op"},
	{"core.coalesce_calls", "count/op"},
	{"core.refresh_ms", "ms/op"},
	{"core.refresh_calls", "count/op"},
	{"probe.charged_total", "probes/op"},
	{"probe.reprobe_ratio", "ratio"},
	{"tellme.self_ms", "ms/op"},
	{"serve.http.recommend_us_p50", "us"},
	{"serve.http.recommend_us_p99", "us"},
	{"serve.http.join_us_p50", "us"},
	{"serve.http.leave_us_p50", "us"},
	{"serve.http.client_overhead_us_p50", "us"},
	{"serve.engine.epoch_ms_p50", "ms"},
	{"serve.engine.epoch_ms_max", "ms"},
	{"serve.engine.epochs_per_s", "1/s"},
	{"serve.engine.refresh_frac", "frac"},
	{"serve.engine.recommend_waited", "count"},
	{"gen.late_p99_us", "us"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	workers int     // generator callers in flight: nproc
	tr      *tracer // nil unless --trace 1
}

func (c runConfig) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// outcome is a workload's measured result. A correctness failure is
// returned as an error instead.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	// samples is the sample count behind each latency metric.
	samples map[string]int
	// rates are the workload's fixed offered rates (per second).
	rates map[string]float64
	// ungated are end-to-end figures too unsteady to gate a change.
	ungated map[string]float64
	// validity holds the figures behind the run's validity checks.
	validity map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}, rates: map[string]float64{}, ungated: map[string]float64{}, validity: map[string]float64{}}
}

type workload func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"fleet-rounds":       runFleet,
	"serve-recommend":    runServe,
	"reconstruct-local":  runReconstructLocal,
	"reconstruct-remote": runReconstructRemote,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-rounds, serve-recommend, reconstruct-local, reconstruct-remote")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the measured run")
	traceOn := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceOn)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, seconds: *seconds, workers: runtime.NumCPU()}
	if *traceOn == 1 {
		cfg.tr = newTracer()
	}

	ctx, cancel := context.WithCancel(context.Background())
	out, err := wl(ctx, cfg)
	cancel()
	res := result{Metrics: map[string]metricValue{}}
	if out != nil {
		res.Attempted, res.Failed = out.attempted, out.failed
		printEnv(*name, cfg, out)
	}
	if err == nil && cfg.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.txt", *name, *seed))
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = cfg.tr.write(path)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		emit(res)
		os.Exit(1)
	}
	res.Correct = true
	if cfg.tr == nil {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok || !(v > 0) {
				fmt.Fprintf(os.Stderr, "benchmark: %s: end-to-end metric %s is missing or not positive (%v)\n", *name, m.name, v)
				emit(result{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}})
				os.Exit(1)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{out.layer[m.name], m.unit}
		}
		// The traced run's own end-to-end figures, beside the untraced
		// run's, give the tracing overhead.
		fmt.Fprintf(os.Stderr, "benchmark: traced end-to-end %s\n", formatMap(out.e2e))
	}
	emit(res)
}

func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// printEnv prints the environment record as one JSON line ahead of the
// result: what ran, where, and how much it measured.
func printEnv(name string, cfg runConfig, out *outcome) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":      name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.tr != nil,
		"commit":        rev,
		"dirty":         dirty,
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"offered_rates": out.rates,
		"samples":       out.samples,
		"ungated":       out.ungated,
		"validity":      out.validity,
		"attempted":     out.attempted,
		"failed":        out.failed,
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

func formatMap(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%.6g ", k, m[k])
	}
	return s
}
