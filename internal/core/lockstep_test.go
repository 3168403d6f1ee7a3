package core

// Validation of the cost model: the simulator normally reports "max
// probes per player" as the round count; here full algorithms execute
// under sim.LockstepRunner — the strict one-probe-per-round semantics of
// the paper's model — and the realized round count must equal the sum
// over phases of the per-phase max, which is what Clock-style accounting
// measures.

import (
	"context"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// accountingLockstep wraps a LockstepRunner and, per phase, accumulates
// the max per-player probe delta — the simulator's usual metric — so it
// can be compared with the gate's true round count.
type accountingLockstep struct {
	inner  *sim.LockstepRunner
	engine *probe.Engine
	rounds int64
	snap   []int64
}

func (r *accountingLockstep) Phase(ctx context.Context, players []int, f func(p int)) error {
	r.snap = chargedSnapshot(r.engine, r.snap)
	err := r.inner.Phase(ctx, players, f)
	r.rounds += maxChargedDelta(r.engine, r.snap)
	return err
}

func (r *accountingLockstep) PhaseAll(ctx context.Context, n int, f func(p int)) error {
	return r.Phase(ctx, ints.Iota(n), f)
}

func TestZeroRadiusUnderStrictLockstep(t *testing.T) {
	in := prefs.Identical(64, 64, 0.5, 31)
	board := billboard.New(in.N, in.M)
	gate := sim.NewGate()
	engine := probe.NewEngine(in, board, rng.NewSource(32),
		probe.WithProbeHook(func(int) { gate.Tick() }))
	runner := &accountingLockstep{inner: &sim.LockstepRunner{G: gate}, engine: engine}
	env := NewEnv(engine, runner, rng.NewSource(33), DefaultConfig())

	out := ZeroRadiusBits(env, allPlayers(in.N), seqObjs(in.M), 0.5)

	// correctness unchanged under the strict model
	c := in.Communities[0]
	for _, p := range c.Members {
		for j := 0; j < in.M; j++ {
			if byte(out[p][j]) != c.Center.Get(j) {
				t.Fatalf("member %d wrong at %d under lockstep", p, j)
			}
		}
	}
	// the gate's true round count equals the phase-accounted rounds
	if gate.Rounds() != runner.rounds {
		t.Fatalf("strict rounds %d != accounted rounds %d", gate.Rounds(), runner.rounds)
	}
	// and the per-player max is a lower bound on (and here, close to)
	// the round count
	var maxProbes int64
	for p := 0; p < in.N; p++ {
		if c := engine.Charged(p); c > maxProbes {
			maxProbes = c
		}
	}
	if maxProbes > gate.Rounds() {
		t.Fatalf("max per-player probes %d exceeds strict rounds %d", maxProbes, gate.Rounds())
	}
}

func TestSmallRadiusUnderStrictLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep is one goroutine per player")
	}
	in := prefs.Planted(48, 48, 0.5, 2, 34)
	board := billboard.New(in.N, in.M)
	gate := sim.NewGate()
	engine := probe.NewEngine(in, board, rng.NewSource(35),
		probe.WithProbeHook(func(int) { gate.Tick() }))
	runner := &accountingLockstep{inner: &sim.LockstepRunner{G: gate}, engine: engine}
	env := NewEnv(engine, runner, rng.NewSource(36), DefaultConfig())

	sr := SmallRadius(env, allPlayers(in.N), seqObjs(in.M), 0.5, 2, 2)
	c := in.Communities[0]
	for _, p := range c.Members {
		if e := sr[p].Dist(in.Truth[p]); e > 10 {
			t.Fatalf("member %d error %d under lockstep", p, e)
		}
	}
	if gate.Rounds() != runner.rounds {
		t.Fatalf("strict rounds %d != accounted rounds %d", gate.Rounds(), runner.rounds)
	}
}
