// Package exp defines the reproduction experiments E1–E20.
//
// The paper is a theory extended abstract: its figures are pseudocode
// and it has no measurement tables. Each experiment here regenerates one
// of the paper's quantitative claims (a probe-complexity bound, an error
// bound, or a success probability) as a table of claimed-vs-measured
// values. DESIGN.md carries the full index; EXPERIMENTS.md records the
// outputs of a reference run.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"tellme/internal/billboard"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/metrics"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
	"tellme/internal/telemetry"
)

// Options control experiment size and repetition.
type Options struct {
	// Seeds is the number of independent repetitions per configuration
	// (≥ 1). Tables report means over seeds.
	Seeds int
	// Scale multiplies instance sizes: 1 is the quick configuration used
	// in tests; 2–4 are the reference configurations in EXPERIMENTS.md.
	Scale int
	// Progress, when non-nil, receives one line per configuration.
	Progress io.Writer
	// Telemetry, when non-nil, instruments every session the experiment
	// creates (board posts, probe charges, per-sub-algorithm cost
	// spans). One registry accumulates across all of an experiment's
	// configurations and seeds — the source of the -telemetry cost
	// breakdown in cmd/experiments.
	Telemetry *telemetry.Registry
	// Context, when non-nil and cancellable, governs every session the
	// experiment creates: player code observes cancellation between
	// probes, and the abort surfaces as a *core.Abort / *probe.Canceled
	// panic out of Run (recovered by cmd/experiments). A nil or
	// background context keeps every hot path on the nil-check fast
	// path.
	Context context.Context
}

// Defaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Experiment is one reproducible claim.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E4".
	ID string
	// Title is a short description.
	Title string
	// Claim cites the theorem or lemma being reproduced.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(o Options) []*metrics.Table
}

// registry holds all experiments, populated by init() in the e_*.go
// files.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 (numeric-aware)
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// session bundles a ready-to-run environment over a fresh instance.
type session struct {
	in     *prefs.Instance
	engine *probe.Engine
	env    *core.Env
	runner *sim.Runner
}

// newSession wires a deterministic environment for one run,
// instrumented with o.Telemetry when set.
func (o Options) newSession(in *prefs.Instance, seed uint64, cfg core.Config) *session {
	b := billboard.New(in.N, in.M)
	b.SetTelemetry(o.Telemetry)
	src := rng.NewSource(seed)
	var popts []probe.Option
	if o.Telemetry != nil {
		popts = append(popts, probe.WithTelemetry(o.Telemetry))
	}
	if o.Context != nil && o.Context.Done() != nil {
		popts = append(popts, probe.WithContext(o.Context))
	}
	e := probe.NewEngine(in, b, src.Child("engine", 0), popts...)
	runner := sim.NewRunner(0)
	env := core.NewEnv(e, runner, src.Child("public", 0), cfg)
	env.Telemetry = o.Telemetry
	return &session{in: in, engine: e, env: env, runner: runner}
}

// probeStats reads the session's cost counters.
func (s *session) probeStats() metrics.ProbeStats {
	return metrics.Probes(s.engine)
}

// community returns the first planted community's member list.
func (s *session) community() []int { return s.in.Communities[0].Members }

func allPlayers(n int) []int { return ints.Iota(n) }

func seqObjs(m int) []int { return ints.Iota(m) }
