package main

import (
	"fmt"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of v (which it sorts in
// place) and whether at least minBeyond samples lie beyond it. Raw
// samples are kept rather than bucketed, so the value carries no
// histogram error.
func quantile(v []int64, q float64) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	slices.Sort(v)
	rank := int(float64(len(v))*q + 0.999999999) // ceil(q·n), robust to float error
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1], len(v)-rank >= minBeyond
}

// mustQuantile is quantile for an end-to-end metric: a percentile the
// sample cannot support makes the run invalid instead of reporting a
// number that would not repeat.
func mustQuantile(what string, v []int64, q float64) (int64, error) {
	x, ok := quantile(v, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (need %d beyond it)", what, len(v), q*100, minBeyond)
	}
	return x, nil
}

// quantileOrZero is quantile for a per-layer metric: a layer that did
// too little work to support the percentile reports 0.
func quantileOrZero(v []int64, q float64) int64 {
	x, ok := quantile(v, q)
	if !ok {
		return 0
	}
	return x
}

// median returns the median of durations (mean of the middle pair for
// an even count).
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// maxLateShare bounds the generator's lateness: its median wake-up
// lateness must stay below this share of the open-loop p50 it times.
// Lateness is not charged to an arrival (see openLoop), but a generator
// that wakes late does not offer the fixed rate.
const maxLateShare = 0.1

// checkLateness puts the generator's p50, p90 and p99 wake-up lateness
// in the environment record and fails a run whose generator woke too
// late to offer its schedule.
func checkLateness(out *outcome, late []int64, p50 int64) error {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		l, _ := quantile(late, q)
		out.validity[fmt.Sprintf("generator_late_p%g_us", q*100)] = us(l)
	}
	if l, _ := quantile(late, 0.5); float64(l) > maxLateShare*float64(p50) {
		return fmt.Errorf("generator lateness p50 %.1fµs exceeds %.0f%% of the p50 it times (%.1fµs)", us(l), maxLateShare*100, us(p50))
	}
	return nil
}
