package probe

import (
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/prefs"
	"tellme/internal/rng"
)

func newEngine(t *testing.T, opts ...Option) (*Engine, *prefs.Instance) {
	t.Helper()
	in := prefs.Planted(16, 64, 0.5, 4, 7)
	b := billboard.New(in.N, in.M)
	return NewEngine(in, b, rng.NewSource(1), opts...), in
}

func TestProbeReturnsTruth(t *testing.T) {
	e, in := newEngine(t)
	for p := 0; p < in.N; p++ {
		pl := e.Player(p)
		for o := 0; o < in.M; o += 7 {
			if got := pl.Probe(o); got != in.Grade(p, o) {
				t.Fatalf("Probe(%d,%d) = %d, truth %d", p, o, got, in.Grade(p, o))
			}
		}
	}
}

func TestProbePostsToBillboard(t *testing.T) {
	e, in := newEngine(t)
	e.Player(3).Probe(11)
	v, ok := e.Board().LookupProbe(3, 11)
	if !ok || v != in.Grade(3, 11) {
		t.Fatalf("billboard: %v %v", v, ok)
	}
}

func TestChargeAllCountsDuplicates(t *testing.T) {
	e, _ := newEngine(t) // default ChargeAll
	pl := e.Player(0)
	pl.Probe(5)
	pl.Probe(5)
	pl.Probe(5)
	if got := e.Charged(0); got != 3 {
		t.Fatalf("ChargeAll charged %d, want 3", got)
	}
	if got := e.Invoked(0); got != 3 {
		t.Fatalf("Invoked = %d", got)
	}
}

func TestChargeDistinctCachesDuplicates(t *testing.T) {
	e, _ := newEngine(t, WithPolicy(ChargeDistinct))
	pl := e.Player(0)
	a := pl.Probe(5)
	b := pl.Probe(5)
	pl.Probe(6)
	if a != b {
		t.Fatal("cached probe returned different value")
	}
	if got := e.Charged(0); got != 2 {
		t.Fatalf("ChargeDistinct charged %d, want 2", got)
	}
	if got := e.Invoked(0); got != 3 {
		t.Fatalf("Invoked = %d, want 3", got)
	}
}

func TestChargesIsolatedPerPlayer(t *testing.T) {
	e, _ := newEngine(t)
	e.Player(0).Probe(1)
	e.Player(1).Probe(1)
	e.Player(1).Probe(2)
	if e.Charged(0) != 1 || e.Charged(1) != 2 {
		t.Fatalf("charges: %d, %d", e.Charged(0), e.Charged(1))
	}
	if e.TotalCharged() != 3 {
		t.Fatalf("TotalCharged = %d", e.TotalCharged())
	}
}

func TestFlipNoiseAlways(t *testing.T) {
	e, in := newEngine(t, WithNoise(FlipNoise(1.0)))
	pl := e.Player(2)
	for o := 0; o < 20; o++ {
		if pl.Probe(o) != 1-in.Grade(2, o) {
			t.Fatal("FlipNoise(1.0) did not flip")
		}
	}
}

func TestFlipNoiseRate(t *testing.T) {
	e, in := newEngine(t, WithNoise(FlipNoise(0.25)))
	pl := e.Player(0)
	flips := 0
	for o := 0; o < 64; o++ {
		if pl.Probe(o) != in.Grade(0, o) {
			flips++
		}
	}
	if flips == 0 || flips == 64 {
		t.Fatalf("FlipNoise(0.25) flipped %d/64", flips)
	}
}

func TestStuckNoise(t *testing.T) {
	e, in := newEngine(t, WithNoise(StuckNoise(func(p int) bool { return p == 4 }, 1)))
	for o := 0; o < 10; o++ {
		if e.Player(4).Probe(o) != 1 {
			t.Fatal("stuck player not stuck at 1")
		}
	}
	ok := false
	for o := 0; o < 64; o++ {
		if e.Player(5).Probe(o) == in.Grade(5, o) {
			ok = true
		}
	}
	if !ok {
		t.Fatal("healthy player corrupted")
	}
}

func TestNoiseDeterministicAcrossRuns(t *testing.T) {
	mk := func() []byte {
		in := prefs.Planted(4, 32, 0.5, 2, 7)
		b := billboard.New(in.N, in.M)
		e := NewEngine(in, b, rng.NewSource(9), WithNoise(FlipNoise(0.5)))
		var out []byte
		for o := 0; o < 32; o++ {
			out = append(out, e.Player(1).Probe(o))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not reproducible at %d", i)
		}
	}
}

func TestConcurrentProbing(t *testing.T) {
	in := prefs.Planted(32, 128, 0.5, 4, 3)
	b := billboard.New(in.N, in.M)
	e := NewEngine(in, b, rng.NewSource(2))
	var wg sync.WaitGroup
	for p := 0; p < in.N; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pl := e.Player(p)
			for o := 0; o < in.M; o++ {
				if pl.Probe(o) != in.Grade(p, o) {
					t.Errorf("wrong grade for %d,%d", p, o)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if e.TotalCharged() != int64(in.N*in.M) {
		t.Fatalf("TotalCharged = %d", e.TotalCharged())
	}
	if b.ProbeCount() != int64(in.N*in.M) {
		t.Fatalf("board ProbeCount = %d", b.ProbeCount())
	}
}

func BenchmarkProbe(b *testing.B) {
	in := prefs.Planted(4, 1<<16, 0.5, 4, 3)
	board := billboard.New(in.N, in.M)
	e := NewEngine(in, board, rng.NewSource(2))
	pl := e.Player(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.Probe(i & (1<<16 - 1))
	}
}
