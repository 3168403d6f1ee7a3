package core

// Tests for non-square instance shapes (m ≠ n) and simultaneous
// multi-community recovery — cases the paper handles by reduction
// ("when m > n each player simulates ⌈m/n⌉ players; if m < n add dummy
// objects") but which the implementation supports directly.

import (
	"testing"

	"tellme/internal/prefs"
	"tellme/internal/telemetry"
)

func TestZeroRadiusWideMatrix(t *testing.T) {
	// m = 4n: more objects than players.
	in := prefs.Identical(128, 512, 0.5, 90)
	env, _ := newTestEnv(t, in, 91)
	out := ZeroRadiusBits(env, allPlayers(in.N), seqObjs(in.M), 0.5)
	c := in.Communities[0]
	for _, p := range c.Members {
		for j := 0; j < in.M; j++ {
			if byte(out[p][j]) != c.Center.Get(j) {
				t.Fatalf("member %d wrong at %d (wide matrix)", p, j)
			}
		}
	}
	// cost should still be well below m
	var worst int64
	for p := 0; p < in.N; p++ {
		if pr := env.Engine.Charged(p); pr > worst {
			worst = pr
		}
	}
	if worst >= int64(in.M) {
		t.Fatalf("wide matrix cost %d ≥ m", worst)
	}
}

func TestZeroRadiusTallMatrix(t *testing.T) {
	// n = 4m: more players than objects.
	in := prefs.Identical(512, 128, 0.5, 92)
	env, _ := newTestEnv(t, in, 93)
	out := ZeroRadiusBits(env, allPlayers(in.N), seqObjs(in.M), 0.5)
	c := in.Communities[0]
	for _, p := range c.Members {
		for j := 0; j < in.M; j++ {
			if byte(out[p][j]) != c.Center.Get(j) {
				t.Fatalf("member %d wrong at %d (tall matrix)", p, j)
			}
		}
	}
}

func TestSmallRadiusWideMatrix(t *testing.T) {
	in := prefs.Planted(128, 384, 0.5, 4, 94)
	env, _ := newTestEnv(t, in, 95)
	out := SmallRadius(env, allPlayers(in.N), seqObjs(in.M), 0.5, 4, 0)
	c := in.Communities[0]
	for _, p := range c.Members {
		if e := out[p].Dist(in.Truth[p]); e > 20 {
			t.Fatalf("member %d error %d (wide)", p, e)
		}
	}
}

func TestLargeRadiusWideMatrix(t *testing.T) {
	in := prefs.Planted(256, 512, 0.5, 32, 96)
	env, _ := newTestEnv(t, in, 97)
	out := LargeRadius(env, allPlayers(in.N), seqObjs(in.M), 0.5, 32)
	c := in.Communities[0]
	for _, p := range c.Members {
		if e := in.Err(p, out[p]); e > 8*32*2 {
			t.Fatalf("member %d error %d (wide)", p, e)
		}
	}
}

func TestZeroRadiusMultiCommunitySimultaneous(t *testing.T) {
	// Three identical-taste communities recovered by ONE run: ZeroRadius
	// with α = the smallest community fraction serves them all at once.
	in := prefs.MultiCommunity(300, 300, []prefs.CommunitySpec{
		{Alpha: 0.4, D: 0},
		{Alpha: 0.3, D: 0},
		{Alpha: 0.2, D: 0},
	}, 98)
	env, _ := newTestEnv(t, in, 99)
	out := ZeroRadiusBits(env, allPlayers(in.N), seqObjs(in.M), 0.2)
	for ci, c := range in.Communities {
		for _, p := range c.Members {
			for j := 0; j < in.M; j++ {
				if byte(out[p][j]) != c.Center.Get(j) {
					t.Fatalf("community %d member %d wrong at %d", ci, p, j)
				}
			}
		}
	}
}

func TestRunCounters(t *testing.T) {
	in := prefs.Planted(256, 256, 0.5, 32, 100)
	run := func(reg *telemetry.Registry) map[string]int64 {
		env, _ := newTestEnv(t, in, 101)
		env.Telemetry = reg
		_ = LargeRadius(env, allPlayers(in.N), seqObjs(in.M), 0.5, 32)
		return env.RunCounts()
	}
	reg := telemetry.New()
	counts := run(reg)
	if counts["LargeRadius"] != 1 {
		t.Fatalf("LargeRadius count %d", counts["LargeRadius"])
	}
	if counts["SmallRadius"] < 1 {
		t.Fatal("no SmallRadius sub-runs recorded")
	}
	if counts["ZeroRadius"] < counts["SmallRadius"] {
		t.Fatalf("ZeroRadius %d < SmallRadius %d", counts["ZeroRadius"], counts["SmallRadius"])
	}
	if counts["Coalesce"] < 1 {
		t.Fatal("no Coalesce runs recorded")
	}
	// The telemetry calls counters and RunCounts come from the same
	// span, so they agree for every kind.
	snap := reg.Snapshot()
	for _, kd := range kinds {
		if got := snap.Counters["core."+kd.metric+".calls"]; got != counts[kd.name] {
			t.Errorf("core.%s.calls = %d, RunCounts[%s] = %d", kd.metric, got, kd.name, counts[kd.name])
		}
	}
	// Counting does not depend on telemetry being attached.
	plain := run(nil)
	if len(plain) != len(counts) {
		t.Fatalf("RunCounts without telemetry = %v, with = %v", plain, counts)
	}
	for name, c := range counts {
		if plain[name] != c {
			t.Errorf("RunCounts[%s] = %d without telemetry, %d with", name, plain[name], c)
		}
	}
}
