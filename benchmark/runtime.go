package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// runtimeSample is one reading of the Go runtime's own counters; two
// readings bracket a measured window.
type runtimeSample struct {
	heapLive, allocBytes, gcCycles uint64
	gcCPU, totalCPU                float64
	pauses, sched                  *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		heapLive:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		pauses:     s[5].Value.Float64Histogram(),
		sched:      s[6].Value.Float64Histogram(),
	}
}

// runtimeLayer reduces two readings to the runtime.* per-layer metrics.
// The runtime's histograms have fine buckets (a few per power of two);
// a percentile is read as the upper bound of its bucket. A window holds
// only a few GC cycles, too few pauses for a p99, so gc_pause_p99_us is
// the longest pause whenever fewer than minBeyond lie beyond the p99.
func runtimeLayer(a, b runtimeSample, ops int64, out map[string]float64) {
	out["runtime.heap_live_mb"] = float64(b.heapLive) / (1 << 20)
	out["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	out["runtime.gc_pause_p99_us"] = histQuantile(a.pauses, b.pauses, 0.99, true) * 1e6
	out["runtime.sched_latency_p99_us"] = histQuantile(a.sched, b.sched, 0.99, false) * 1e6
	if ops > 0 {
		out["runtime.alloc_kb_per_op"] = float64(b.allocBytes-a.allocBytes) / 1024 / float64(ops)
	}
}

// histQuantile returns the q-quantile of the events recorded between
// two readings of one runtime histogram. With fewer than minBeyond
// events beyond it, it returns the largest event if orMax is set, else 0.
func histQuantile(a, b *metrics.Float64Histogram, q float64, orMax bool) float64 {
	counts := make([]uint64, len(b.Counts))
	var n uint64
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += counts[i]
	}
	rank := uint64(float64(n)*q + 0.999999999)
	switch {
	case n == 0 || (n-rank < minBeyond && !orMax):
		return 0
	case n-rank < minBeyond:
		rank = n
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return b.Buckets[i+1]
		}
	}
	return 0
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
