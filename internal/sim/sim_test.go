package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
)

func TestPhaseRunsEveryPlayerOnce(t *testing.T) {
	r := NewRunner(4)
	var counts [100]atomic.Int32
	players := make([]int, 100)
	for i := range players {
		players[i] = i
	}
	r.Phase(nil, players, func(p int) { counts[p].Add(1) })
	for p := range counts {
		if got := counts[p].Load(); got != 1 {
			t.Fatalf("player %d ran %d times", p, got)
		}
	}
}

func TestPhaseSubset(t *testing.T) {
	r := NewRunner(2)
	var sum atomic.Int64
	r.Phase(nil, []int{3, 5, 9}, func(p int) { sum.Add(int64(p)) })
	if sum.Load() != 17 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestPhaseEmpty(t *testing.T) {
	NewRunner(0).Phase(nil, nil, func(p int) { t.Fatal("called on empty set") })
}

func TestPhaseSingleWorkerSequential(t *testing.T) {
	r := NewRunner(1)
	order := []int{}
	r.Phase(nil, []int{4, 2, 7}, func(p int) { order = append(order, p) })
	if len(order) != 3 || order[0] != 4 || order[1] != 2 || order[2] != 7 {
		t.Fatalf("order = %v", order)
	}
}

func TestPhasePanicBecomesError(t *testing.T) {
	var ran atomic.Int32
	err := NewRunner(4).PhaseAll(nil, 10, func(p int) {
		ran.Add(1)
		if p == 5 {
			panic("boom")
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if perr.Value != "boom" {
		t.Fatalf("panic value = %v", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// The barrier completed: the panicking player did not abandon the
	// other workers' work.
	if ran.Load() != 10 {
		t.Fatalf("%d of 10 players ran", ran.Load())
	}
}

func TestMustPhaseAllRepanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	MustPhaseAll(NewRunner(4), 10, func(p int) {
		if p == 5 {
			panic("boom")
		}
	})
}

func TestPhaseObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := NewRunner(4).PhaseAll(ctx, 1000, func(p int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancelled phase still ran every player")
	}
}

func TestPhaseCancelMidway(t *testing.T) {
	// Cancel from inside player code: workers must stop claiming new
	// chunks and the barrier must still complete without deadlock.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := NewRunner(4).PhaseAll(ctx, 10000, func(p int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n < 50 || n == 10000 {
		t.Fatalf("ran %d players, want >=50 and <10000", n)
	}
}

func TestPhaseAll(t *testing.T) {
	r := NewRunner(8)
	var n atomic.Int32
	r.PhaseAll(nil, 50, func(p int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("ran %d players", n.Load())
	}
}

func TestConcurrentPhaseWithProbes(t *testing.T) {
	in := prefs.Planted(64, 256, 0.5, 8, 2)
	b := billboard.New(in.N, in.M)
	e := probe.NewEngine(in, b, rng.NewSource(3))
	err := NewRunner(0).PhaseAll(nil, in.N, func(p int) {
		pl := e.Player(p)
		for o := 0; o < in.M; o++ {
			if pl.Probe(o) != in.Grade(p, o) {
				t.Errorf("player %d: bad grade for object %d", p, o)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.N; p++ {
		if got := e.Charged(p); got != int64(in.M) {
			t.Fatalf("player %d charged %d probes, want %d", p, got, in.M)
		}
	}
}

func allPlayers(n int) []int { return ints.Iota(n) }

func BenchmarkPhaseOverhead(b *testing.B) {
	r := NewRunner(0)
	players := allPlayers(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Phase(nil, players, func(p int) {})
	}
}

// BenchmarkPhaseParallelScaling measures wall-clock scaling of the
// phase runner across worker counts on a CPU-bound per-player task.
func BenchmarkPhaseParallelScaling(b *testing.B) {
	players := allPlayers(256)
	work := func(p int) {
		s := uint64(p + 1)
		for i := 0; i < 20000; i++ {
			s = s*6364136223846793005 + 1442695040888963407
		}
		if s == 42 {
			b.Fatal("unreachable")
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := NewRunner(workers)
			for i := 0; i < b.N; i++ {
				r.Phase(nil, players, work)
			}
		})
	}
}
