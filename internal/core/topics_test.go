package core

import (
	"sync/atomic"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// openCheckBoard fails the test on any topic post whose topic the Env
// has not registered, so a topic an algorithm forgot to open (and that
// an abort would therefore leak) shows up even on runs that complete.
// Embedding the interface hides the in-memory board's batched posting
// path, so every post goes through a named Post* call
// (openCheckBatchBoard keeps that path and checks it too).
type openCheckBoard struct {
	boardclient.Interface
	t     *testing.T
	env   *Env
	posts atomic.Int64
}

func (b *openCheckBoard) check(name string) {
	b.posts.Add(1)
	if _, ok := b.env.open[name]; !ok {
		b.t.Errorf("post to topic %q before it was opened", name)
	}
}

func (b *openCheckBoard) Post(name string, player int, v bitvec.Partial) {
	b.check(name)
	b.Interface.Post(name, player, v)
}

func (b *openCheckBoard) PostVector(name string, player int, v bitvec.Vector) {
	b.check(name)
	b.Interface.PostVector(name, player, v)
}

func (b *openCheckBoard) PostValues(name string, player int, vals []uint32) {
	b.check(name)
	b.Interface.PostValues(name, player, vals)
}

// openCheckBatchBoard is openCheckBoard with the in-memory board's
// batched posting surface (batchPoster, postHinter) kept visible, so
// the batched ZeroRadius path runs. PostValuesBatchRef carries no
// topic name, so registration is checked where that path resolves its
// topic (TopicRef); HintPosts, which also creates its topic, is checked
// the same way.
type openCheckBatchBoard struct {
	*openCheckBoard
	board *billboard.Board
}

var (
	_ batchPoster = (*openCheckBatchBoard)(nil)
	_ postHinter  = (*openCheckBatchBoard)(nil)
)

func (b *openCheckBatchBoard) TopicRef(name string) billboard.TopicRef {
	b.check(name)
	return b.board.TopicRef(name)
}

func (b *openCheckBatchBoard) PostValuesBatchRef(r billboard.TopicRef, players []int, rows [][]uint32) {
	b.board.PostValuesBatchRef(r, players, rows)
}

func (b *openCheckBatchBoard) HintPosts(name string, vectors, values int) {
	b.check(name)
	b.board.HintPosts(name, vectors, values)
}

// TestAlgorithmsDropWhatTheyOpen runs every topic-posting algorithm and
// every stack built on them directly on an Env, with no run-boundary
// cleanup: each must open a topic before posting to it and end with its
// open-topic set empty and no topic on the board, so DropOpenTopics only
// ever finds an abort's in-flight scratch.
func TestAlgorithmsDropWhatTheyOpen(t *testing.T) {
	const n, m, d = 64, 64, 16
	in := prefs.Planted(n, m, 0.5, d, 90)
	players, objs := allPlayers(n), seqObjs(m)
	// Refresh repairs identical communities' outputs after drift, so it
	// posts stale vectors, finds consensus groups and posts patches.
	same := prefs.Identical(n, m, 0.5, 91)
	stale := make([]bitvec.Partial, n)
	for p := range stale {
		stale[p] = bitvec.PartialOf(same.Vector(p))
	}
	stale[n-1] = bitvec.Partial{} // a joiner, so Refresh's adopt path runs
	drifted := prefs.Drift(same, 4, 0, 92)

	cases := []struct {
		name string
		in   *prefs.Instance
		run  func(env *Env)
	}{
		{"ZeroRadius", in, func(env *Env) { ZeroRadiusBits(env, players, objs, 0.5) }},
		{"SmallRadius", in, func(env *Env) { SmallRadius(env, players, objs, 0.5, 4, 2) }},
		{"LargeRadius", in, func(env *Env) { LargeRadius(env, players, objs, 0.5, d) }},
		{"Main", in, func(env *Env) { Main(env, 0.5, d) }},
		{"UnknownD", in, func(env *Env) { UnknownD(env, 0.5) }},
		{"Anytime", in, func(env *Env) {
			Anytime(env, 0, func(ph AnytimePhase) bool { return ph.Phase < 2 })
		}},
		{"Refresh", drifted, func(env *Env) {
			red, maxP := RefreshBudget(4)
			Refresh(env, players, objs, stale, 0.5, red, maxP)
		}},
	}
	for _, tc := range cases {
		for _, batched := range []bool{false, true} {
			name := tc.name + "/named"
			if batched {
				name = tc.name + "/batched"
			}
			t.Run(name, func(t *testing.T) {
				board := billboard.New(n, m)
				checker := &openCheckBoard{Interface: board, t: t}
				var client boardclient.Interface = checker
				if batched {
					client = &openCheckBatchBoard{openCheckBoard: checker, board: board}
				}
				e := probe.NewEngine(tc.in, client, rng.NewSource(92).Child("engine", 0))
				env := NewEnv(e, sim.NewRunner(0), rng.NewSource(92).Child("public", 0), DefaultConfig())
				checker.env = env
				tc.run(env)
				if checker.posts.Load() == 0 {
					t.Fatal("the run posted nothing: the open-before-post check saw no topic")
				}
				if len(env.open) != 0 {
					t.Fatalf("%d topics still open after a completed run: %v", len(env.open), env.open)
				}
				if tc := board.TopicCount(); tc != 0 {
					t.Fatalf("%d topics left on the board after a completed run", tc)
				}
			})
		}
	}
}
