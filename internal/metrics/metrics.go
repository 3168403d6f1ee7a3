// Package metrics computes the paper's evaluation quantities —
// discrepancy Δ, diameter D, stretch ρ, probe-cost statistics — and
// renders experiment tables.
package metrics

import (
	"math"
	"sort"

	"tellme/internal/bitvec"
	"tellme/internal/prefs"
	"tellme/internal/probe"
)

// Discrepancy is the paper's Δ(P*): the maximum output error over the
// player set. '?' output entries are charged under the Fill(0)
// convention (the paper's "? may be set to 0").
func Discrepancy(in *prefs.Instance, players []int, out []bitvec.Partial) int {
	worst := 0
	for _, p := range players {
		if e := in.Err(p, out[p]); e > worst {
			worst = e
		}
	}
	return worst
}

// MeanErr is the average output error over the player set.
func MeanErr(in *prefs.Instance, players []int, out []bitvec.Partial) float64 {
	if len(players) == 0 {
		return 0
	}
	total := 0
	for _, p := range players {
		total += in.Err(p, out[p])
	}
	return float64(total) / float64(len(players))
}

// Stretch is the paper's ρ(P*) = Δ(P*)/D(P*). A zero-diameter set uses
// D = 1 so exact recovery reports stretch equal to the discrepancy
// (stretch 0 means perfect output).
func Stretch(in *prefs.Instance, players []int, out []bitvec.Partial) float64 {
	d := in.Diameter(players)
	if d == 0 {
		d = 1
	}
	return float64(Discrepancy(in, players, out)) / float64(d)
}

// FracWithin returns the fraction of the player set whose output error
// is at most bound.
func FracWithin(in *prefs.Instance, players []int, out []bitvec.Partial, bound int) float64 {
	if len(players) == 0 {
		return 1
	}
	ok := 0
	for _, p := range players {
		if in.Err(p, out[p]) <= bound {
			ok++
		}
	}
	return float64(ok) / float64(len(players))
}

// ProbeStats summarizes per-player probe charges for a run.
type ProbeStats struct {
	// Max is the paper's round count: max probes by a single player.
	Max int64
	// Total is the sum over all players.
	Total int64
	// Mean is Total / population.
	Mean float64
}

// Probes computes ProbeStats over every player of the engine's instance,
// since engine creation.
func Probes(e *probe.Engine) ProbeStats {
	var st ProbeStats
	n := e.Instance().N
	for p := 0; p < n; p++ {
		c := e.Charged(p)
		st.Total += c
		if c > st.Max {
			st.Max = c
		}
	}
	if n > 0 {
		st.Mean = float64(st.Total) / float64(n)
	}
	return st
}

// Summary aggregates repeated scalar measurements.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes mean, sample standard deviation and range.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s
}

// Percentile returns the q-th percentile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for empty input.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
