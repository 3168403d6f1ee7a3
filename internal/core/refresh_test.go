package core

import (
	"testing"

	"tellme/internal/bitvec"
	"tellme/internal/prefs"
)

// refreshSetup runs ZeroRadius on an identical community, drifts the
// world, and returns (drifted instance env, stale outputs, community).
func refreshSetup(t *testing.T, n, driftK int, seed uint64) (*Env, []bitvec.Partial, *prefs.Instance) {
	t.Helper()
	in := prefs.Identical(n, n, 0.5, seed)
	env, _ := newTestEnv(t, in, seed+1)
	zr := ZeroRadiusBits(env, allPlayers(n), seqObjs(n), 0.5)
	stale := make([]bitvec.Partial, n)
	for p := 0; p < n; p++ {
		stale[p] = bitvec.PartialOf(valsToVector(zr[p]))
	}
	in2 := prefs.Drift(in, driftK, 0, seed+2)
	env2, _ := newTestEnv(t, in2, seed+3)
	return env2, stale, in2
}

func TestRefreshRepairsDrift(t *testing.T) {
	const n, k = 128, 8
	env2, stale, in2 := refreshSetup(t, n, k, 80)
	red, maxP := RefreshBudget(k)
	out := Refresh(env2, allPlayers(n), seqObjs(n), stale, 0.5, red, maxP)
	for _, p := range in2.Communities[0].Members {
		if e := in2.Err(p, out[p]); e != 0 {
			t.Fatalf("member %d error %d after refresh", p, e)
		}
	}
}

func TestRefreshCheaperThanRerun(t *testing.T) {
	const n, k = 256, 4
	env2, stale, in2 := refreshSetup(t, n, k, 81)
	red, maxP := RefreshBudget(k)
	snap := chargedSnapshot(env2.Engine, nil)
	out := Refresh(env2, allPlayers(n), seqObjs(n), stale, 0.5, red, maxP)
	refreshCost := maxChargedDelta(env2.Engine, snap)

	// fresh re-run on the same drifted world
	env3, _ := newTestEnv(t, in2, 82)
	zr := ZeroRadiusBits(env3, allPlayers(n), seqObjs(n), 0.5)
	var rerunCost int64
	for p := 0; p < n; p++ {
		if c := env3.Engine.Charged(p); c > rerunCost {
			rerunCost = c
		}
	}
	_ = zr
	if refreshCost >= rerunCost {
		t.Fatalf("refresh cost %d not below fresh re-run %d", refreshCost, rerunCost)
	}
	for _, p := range in2.Communities[0].Members {
		if e := in2.Err(p, out[p]); e != 0 {
			t.Fatalf("member %d error %d", p, e)
		}
	}
}

func TestRefreshNoDriftIsAlmostFree(t *testing.T) {
	const n = 128
	env2, stale, in2 := refreshSetup(t, n, 0, 83)
	snap := chargedSnapshot(env2.Engine, nil)
	out := Refresh(env2, allPlayers(n), seqObjs(n), stale, 0.5, 2, 32)
	cost := maxChargedDelta(env2.Engine, snap)
	// cost ≈ redundancy·m/(αn) = 2·2 = 4: holders split the
	// re-verification and there are no patches to verify.
	if cost > 8 {
		t.Fatalf("no-drift refresh cost %d", cost)
	}
	for _, p := range in2.Communities[0].Members {
		if e := in2.Err(p, out[p]); e != 0 {
			t.Fatalf("member %d error %d with zero drift", p, e)
		}
	}
}

func TestRefreshOutsidersUntouchedAndUncharged(t *testing.T) {
	// Players outside every consensus group keep their stale output and
	// are never assigned re-verification work.
	const n, k = 128, 4
	env2, stale, in2 := refreshSetup(t, n, k, 84)
	red, maxP := RefreshBudget(k)
	snap := chargedSnapshot(env2.Engine, nil)
	out := Refresh(env2, allPlayers(n), seqObjs(n), stale, 0.5, red, maxP)
	inComm := map[int]bool{}
	for _, p := range in2.Communities[0].Members {
		inComm[p] = true
	}
	for p := 0; p < n; p++ {
		if inComm[p] {
			continue
		}
		if !out[p].Equal(stale[p]) {
			t.Fatalf("outsider %d output changed", p)
		}
		if c := env2.Engine.Charged(p) - snap[p]; c != 0 {
			t.Fatalf("outsider %d charged %d probes", p, c)
		}
	}
}

func TestRefreshEmptyInputs(t *testing.T) {
	in := prefs.Identical(8, 8, 0.5, 85)
	env, _ := newTestEnv(t, in, 86)
	out := Refresh(env, nil, seqObjs(8), nil, 0.5, 2, 8)
	for _, o := range out {
		if o.Len() != 0 {
			t.Fatal("output for empty player set")
		}
	}
}
