package core

import (
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// newTestEnv wires an Env over the instance with deterministic seeds.
func newTestEnv(t testing.TB, in *prefs.Instance, seed uint64) (*Env, *probe.Engine) {
	t.Helper()
	b := billboard.New(in.N, in.M)
	e := probe.NewEngine(in, b, rng.NewSource(seed).Child("engine", 0))
	env := NewEnv(e, sim.NewRunner(0), rng.NewSource(seed).Child("public", 0), DefaultConfig())
	return env, e
}

func vec(t testing.TB, s string) bitvec.Vector {
	t.Helper()
	v, err := bitvec.FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func part(t testing.TB, s string) bitvec.Partial {
	t.Helper()
	p, err := bitvec.PartialFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chargedSnapshot copies every player's charged probe count into dst,
// reusing its capacity.
func chargedSnapshot(e *probe.Engine, dst []int64) []int64 {
	dst = dst[:0]
	for p := 0; p < e.Instance().N; p++ {
		dst = append(dst, e.Charged(p))
	}
	return dst
}

// maxChargedDelta returns the largest per-player growth of the charged
// count since snap was taken: the parallel round count of what ran in
// between.
func maxChargedDelta(e *probe.Engine, snap []int64) int64 {
	var worst int64
	for p, c := range snap {
		worst = max(worst, e.Charged(p)-c)
	}
	return worst
}

// seqObjs returns [0, k).
func seqObjs(k int) []int { return ints.Iota(k) }

// singlePlayer builds a 1-player instance with the given truth string
// and returns its probe handle plus the engine.
func singlePlayer(t testing.TB, truth string, seed uint64) (*probe.Player, *probe.Engine) {
	t.Helper()
	in := prefs.FromVectors([]bitvec.Vector{vec(t, truth)})
	b := billboard.New(1, in.M)
	e := probe.NewEngine(in, b, rng.NewSource(seed))
	return e.Player(0), e
}
