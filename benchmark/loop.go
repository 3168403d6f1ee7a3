package main

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// loopStats is the raw outcome of one measured window.
type loopStats struct {
	// lat holds one latency per issued operation, in ns (see openLoop
	// and closedLoop for where it is charged from). A failed operation
	// is recorded as math.MaxInt64, so it misses every limit.
	lat []int64
	// late holds, for open-loop arrivals whose worker was idle when they
	// fell due, how long after the due time the worker woke to send
	// them (ns): the generator's own lateness.
	late []int64
	// ops and failed count issued and failed operations.
	ops, failed int64
	elapsed     time.Duration
	firstErr    error
}

// op runs one operation on worker w. Each worker calls it serially, so
// state indexed by w needs no locking.
type op func(w int) error

// arrival runs open-loop arrival j on worker w, serially like op.
type arrival func(w int, j int64) error

// openLoop issues n arrivals at a fixed rate: arrival j is due at
// start + j/rate and is run by worker j mod workers, so at most
// `workers` operations are in flight. An arrival whose worker was still
// busy at its due time is charged from the due time, so a stall also
// delays, and is charged to, the arrivals queued behind it. An arrival
// whose worker was idle is charged from when the worker woke to send
// it: how late the generator woke is its own error, recorded in late,
// not the system's. The returned lat is indexed by arrival. A cancelled
// ctx stops the loop early; the caller checks it.
func openLoop(ctx context.Context, workers int, rate float64, n int64, fn arrival) loopStats {
	per := make([]loopStats, workers)
	lat := make([]int64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for j := int64(w); j < n; j += int64(workers) {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(dueOffset(j, rate))
				sent := due
				if time.Until(due) > 0 {
					sleepUntil(due)
					sent = time.Now()
					st.late = append(st.late, int64(sent.Sub(due)))
				}
				err := fn(w, j)
				lat[j] = st.record(err, time.Since(sent))
			}
		}(w)
	}
	wg.Wait()
	out := merge(per, time.Since(start))
	out.lat = lat
	return out
}

// closedLoop runs `workers` callers, each sending its next operation as
// soon as the previous one completes, until the window has passed.
func closedLoop(ctx context.Context, workers int, window time.Duration, fn op) loopStats {
	end := time.Now().Add(window)
	return closedLoopUntil(ctx, workers, func(int) bool { return time.Now().Before(end) }, fn)
}

// closedLoopUntil is closedLoop with worker w stopping once more(w) is
// false.
func closedLoopUntil(ctx context.Context, workers int, more func(w int) bool, fn op) loopStats {
	per := make([]loopStats, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for ctx.Err() == nil && more(w) {
				t := time.Now()
				err := fn(w)
				st.lat = append(st.lat, st.record(err, time.Since(t)))
			}
		}(w)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// closedLoopN runs n operations on each of workers callers.
func closedLoopN(ctx context.Context, workers, n int, fn op) loopStats {
	done := make([]int, workers)
	return closedLoopUntil(ctx, workers, func(w int) bool {
		done[w]++
		return done[w] <= n
	}, fn)
}

// sleepUntil blocks until t. Longer waits time.Sleep, which gives the
// P to the system under test, until 2ms before t. While the process is
// idle, Go's timers fire through the network poller, whose timeout has
// millisecond resolution, so time.Sleep cannot wait the rest: it
// oversleeps by up to 1ms. nanosleep(2) then waits until spinMargin
// before t; it oversleeps by the thread's timer slack, 50µs by default
// on Linux. The last stretch spins, yielding to runnable goroutines.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for d := time.Until(t) - spinMargin; d > 0; d = time.Until(t) - spinMargin {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) sleeps again
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinMargin exceeds nanosleep's default 50µs timer slack by enough
// that the generator wakes before the due time, and spins ~20µs.
const spinMargin = 80 * time.Microsecond

// dueOffset is arrival j's scheduled offset from the window start.
func dueOffset(j int64, rate float64) time.Duration {
	return time.Duration(float64(j) / rate * float64(time.Second))
}

// record counts one operation and returns the latency to keep for it.
func (s *loopStats) record(err error, d time.Duration) int64 {
	s.ops++
	if err != nil {
		if s.failed == 0 {
			s.firstErr = err
		}
		s.failed++
		return math.MaxInt64
	}
	return int64(d)
}

func merge(per []loopStats, elapsed time.Duration) loopStats {
	out := loopStats{elapsed: elapsed}
	for _, s := range per {
		out.lat = append(out.lat, s.lat...)
		out.late = append(out.late, s.late...)
		out.ops += s.ops
		out.failed += s.failed
		if out.firstErr == nil {
			out.firstErr = s.firstErr
		}
	}
	return out
}

// setupReps is how many set-ups each workload times before its window;
// setup_s is the median of all it times.
const setupReps = 5

// timeSetups runs setup n times, tearing down every instance but the
// last, and returns the last instance, its teardown and every set-up's
// duration.
func timeSetups[T any](n int, setup func() (T, func(), error)) (T, func(), []time.Duration, error) {
	var (
		cur      T
		teardown func()
		took     []time.Duration
	)
	for range n {
		if teardown != nil {
			discard(teardown)
		}
		t := time.Now()
		var err error
		cur, teardown, err = setup()
		if err != nil {
			var zero T
			return zero, nil, took, err
		}
		took = append(took, time.Since(t))
	}
	// Return the discarded set-ups' memory to the OS now rather than
	// leave the runtime's scavenger releasing it during the window.
	debug.FreeOSMemory()
	return cur, teardown, took, nil
}

// discard tears a set-up down and collects it, so that it neither
// inflates the peak RSS nor triggers a collection inside the next
// set-up.
func discard(teardown func()) {
	teardown()
	runtime.GC()
}
