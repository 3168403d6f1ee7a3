package main

import (
	"strings"

	"tellme/internal/telemetry"
)

// boardTotals is a reading of the billboard decorator's clocks.
type boardTotals struct{ postCalls, postNs, readCalls, readNs int64 }

func (d *tracedBoard) totals() boardTotals {
	var t boardTotals
	t.postCalls, t.postNs = d.posts.totals()
	t.readCalls, t.readNs = d.reads.totals()
	return t
}

func (a boardTotals) add(b boardTotals) boardTotals {
	return boardTotals{a.postCalls + b.postCalls, a.postNs + b.postNs, a.readCalls + b.readCalls, a.readNs + b.readNs}
}

func delta(a, b telemetry.Snapshot, name string) int64 { return b.Counters[name] - a.Counters[name] }

// boardLayer fills the billboard.* metrics from two readings of the
// decorator's clocks and of the board's registry, per operation.
func boardLayer(a, b boardTotals, s0, s1 telemetry.Snapshot, ops int64, out map[string]float64) {
	if ops <= 0 {
		return
	}
	n := float64(ops)
	out["billboard.calls"] = float64(b.postCalls+b.readCalls-a.postCalls-a.readCalls) / n
	out["billboard.post_ms"] = ms(b.postNs-a.postNs) / n
	out["billboard.read_ms"] = ms(b.readNs-a.readNs) / n
	hits, rebuilds := delta(s0, s1, "billboard.tally.cache_hits"), delta(s0, s1, "billboard.tally.rebuilds")
	if hits+rebuilds > 0 {
		out["billboard.tally_hit_ratio"] = float64(hits) / float64(hits+rebuilds)
	}
	out["billboard.tally_rebuild_ms"] = ms(delta(s0, s1, "billboard.tally.rebuild_ns")) / n
}

var coreKinds = []string{"zeroradius", "smallradius", "largeradius", "coalesce", "refresh"}

// coreLayer fills core.<kind>_ms and core.<kind>_calls per operation
// from the core.<kind>.{ns,calls} counters.
func coreLayer(s0, s1 telemetry.Snapshot, ops int64, out map[string]float64) {
	if ops <= 0 {
		return
	}
	for _, k := range coreKinds {
		out["core."+k+"_ms"] = ms(delta(s0, s1, "core."+k+".ns")) / float64(ops)
		out["core."+k+"_calls"] = float64(delta(s0, s1, "core."+k+".calls")) / float64(ops)
	}
}

// probeLayer fills probe.charged_total (per operation) and
// probe.reprobe_ratio, the share of probe invocations that were not
// charged, from one run-scoped snapshot (the engine's counters are
// sampled functions that a later engine's registration would replace,
// so only a registry per run reads them reliably).
func probeLayer(s telemetry.Snapshot, ops int64, out map[string]float64) {
	var charged, invoked int64
	for name, v := range s.Counters {
		switch {
		case strings.HasPrefix(name, "probe.charged."):
			charged += v
		case strings.HasPrefix(name, "probe.invoked."):
			invoked += v
		}
	}
	if ops > 0 {
		out["probe.charged_total"] = float64(charged) / float64(ops)
	}
	if invoked > 0 {
		out["probe.reprobe_ratio"] = float64(invoked-charged) / float64(invoked)
	}
}

// sumTransports adds up the counters of several runs' RoundTrippers.
func sumTransports(tts []*tracingTransport) *tracingTransport {
	s := &tracingTransport{}
	for _, t := range tts {
		s.requests.Add(t.requests.Load())
		s.bytes.Add(t.bytes.Load())
		s.retries.Add(t.retries.Load())
		s.dialed.Add(t.dialed.Load())
		s.reused.Add(t.reused.Load())
	}
	return s
}
