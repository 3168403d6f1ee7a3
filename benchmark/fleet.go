package main

import (
	"cmp"
	"context"
	"fmt"
	"os"

	"tellme/internal/boardclient"
	"tellme/internal/netboard"
)

// fleet-rounds: the board plane. A fleet of simulated players runs
// probe rounds (PostProbes, then LookupProbes of the same objects)
// against 4 loopback netboard shards behind a Cluster, binary codec.
var fleetSize = fleetDims{players: 1_000_000, m: 512, batch: 64, shards: 4}

type fleetDims struct{ players, m, batch, shards int }

const (
	// fleetRate is the fixed open-loop offered rate, rounds/s.
	fleetRate = 1000.0
	// fleetOpenShare is the share of the run spent in the open loop; the
	// closed loop that measures rounds_per_s and op_ms takes the rest.
	fleetOpenShare = 0.5
	// fleetWarmup rounds per worker dial the connections during set-up.
	fleetWarmup = 64
)

// fleetSchedule is cmd/loadgen's deterministic round schedule with the
// seed permuting the players and shifting the object windows and
// grades. Arrival i is round k = i div P of player slot x = i mod P:
//
//	player  p = (mul·x + add) mod P
//	objects   = offset..offset+B-1, offset = ((k + x + shift)·B) mod M
//	grade     = (p + o + flip) & 1
//
// A run ends inside the fleet's first round (k = 0), so loadgen's
// window, which depends on k alone, would post the same B objects in
// every round, and their split over the shards would change with the
// seed; rotating the window by the slot spreads each second's rounds
// over every window. B divides M, so a player's windows never partly
// overlap and the board's distinct-probe count after any set of
// arrivals is closed-form (expectedProbes). Worker w issues arrivals
// w, w+W, w+2W, ... and W divides P, so each player is written by one
// worker only, as the board's per-player single-writer contract
// requires.
type fleetSchedule struct {
	players, m, batch, workers int
	mul, add                   int64
	shift, flip                int
}

func newFleetSchedule(seed uint64, players, m, batch, maxWorkers int) fleetSchedule {
	r := splitmix(seed)
	mul := int64(r.next()%uint64(players)) | 1
	for gcd(mul, int64(players)) != 1 {
		mul += 2
	}
	workers := min(maxWorkers, players)
	for players%workers != 0 {
		workers--
	}
	return fleetSchedule{
		players: players, m: m, batch: batch, workers: workers,
		mul:   mul,
		add:   int64(r.next() % uint64(players)),
		shift: int(r.next() % uint64(m/batch)),
		flip:  int(r.next() & 1),
	}
}

// round fills objs and grades for arrival i and returns its player.
func (s fleetSchedule) round(i int64, objs []int, grades []byte) int {
	x, k := i%int64(s.players), i/int64(s.players)
	p := int((s.mul*x + s.add) % int64(s.players))
	offset := int((k+x+int64(s.shift))%int64(s.m/s.batch)) * s.batch
	for j := range s.batch {
		o := offset + j
		objs[j] = o
		grades[j] = byte((p + o + s.flip) & 1)
	}
	return p
}

// expected is the exact distinct-probe count after worker w has issued
// issued[w] arrivals, for every w. Worker w's arrivals cycle through its
// P/W player slots in order, so per worker it is expectedProbes over a
// fleet of P/W players.
func (s fleetSchedule) expected(issued []int64) int64 {
	var total int64
	for _, k := range issued {
		total += expectedProbes(k, s.players/s.workers, s.batch, s.m)
	}
	return total
}

// expectedProbes is the distinct-probe count after n arrivals over a
// fleet of players in slot order, batch objects per round, universe m:
// Σ_p min(k_p·B, M) with k_p the rounds player p ran.
func expectedProbes(n int64, players, batch, m int) int64 {
	if players <= 0 || n <= 0 {
		return 0
	}
	q, r := n/int64(players), n%int64(players)
	distinct := func(k int64) int64 { return min(k*int64(batch), int64(m)) }
	return r*distinct(q+1) + (int64(players)-r)*distinct(q)
}

// fleet is one set-up of the board plane.
type fleet struct {
	shards  *shardSet
	cluster *netboard.Cluster
	board   boardclient.Interface // the cluster, or its traced decorator
	tt      *tracingTransport
	fails   transportFailures
	sched   fleetSchedule
	issued  []int64 // arrivals issued per worker
	bufs    []roundBufs
}

type roundBufs struct {
	objs          []int
	grades, looks []byte
	known         []bool
}

func setupFleet(ctx context.Context, cfg runConfig, dims fleetDims, warmup int) (*fleet, error) {
	shards, err := startShards(dims.shards, dims.players, dims.m, cfg.tr)
	if err != nil {
		return nil, err
	}
	f := &fleet{shards: shards, sched: newFleetSchedule(cfg.seed, dims.players, dims.m, dims.batch, cfg.workers)}
	f.cluster, f.tt, err = newCluster(shards.urls, cfg.seed, cfg.tr, &f.fails)
	if err != nil {
		shards.close()
		return nil, err
	}
	f.board = f.cluster
	if cfg.tr != nil {
		f.board = newTracedCluster(ctx, f.cluster, cfg.tr)
	}
	f.issued = make([]int64, f.sched.workers)
	f.bufs = make([]roundBufs, f.sched.workers)
	for w := range f.bufs {
		f.bufs[w] = roundBufs{make([]int, dims.batch), make([]byte, dims.batch), make([]byte, dims.batch), make([]bool, dims.batch)}
	}
	warm := closedLoopN(ctx, f.sched.workers, warmup, f.roundOp(ctx, cfg.tr))
	if warm.failed > 0 {
		shards.close()
		return nil, fmt.Errorf("fleet warm-up: %d of %d rounds failed", warm.failed, warm.ops)
	}
	return f, nil
}

// roundOp returns the operation that runs worker w's next round and
// checks that the lookup reads back every grade the round posted.
func (f *fleet) roundOp(ctx context.Context, tr *tracer) op {
	return func(w int) error {
		i := int64(w) + f.issued[w]*int64(f.sched.workers)
		f.issued[w]++
		b := &f.bufs[w]
		p := f.sched.round(i, b.objs, b.grades)
		rctx := ctx
		var id uint64
		var start int64
		if tr != nil {
			id, start = tr.newID(), tr.now()
			rctx = withSpan(ctx, id)
		}
		bound := boardclient.BindContext(rctx, f.board)
		bound.PostProbes(p, b.objs, b.grades)
		bound.LookupProbes(p, b.objs, b.looks, b.known)
		if tr != nil {
			tr.end(id, 0, "round", start)
		}
		for j := range b.objs {
			if !b.known[j] || b.looks[j] != b.grades[j] {
				return fmt.Errorf("player %d object %d: posted grade %d, read back (%d, known=%v)", p, b.objs[j], b.grades[j], b.looks[j], b.known[j])
			}
		}
		return nil
	}
}

func runFleet(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	out.rates["rounds"] = fleetRate
	// timeSetups ends with a full collection, so every measured window
	// starts at the same point of the GC cycle: the open loop allocates
	// at a fixed rate, so its cycles then fall at the same offsets.
	f, _, setups, err := timeSetups(setupReps, func() (*fleet, func(), error) {
		f, err := setupFleet(ctx, cfg, fleetSize, fleetWarmup)
		if err != nil {
			return nil, nil, err
		}
		return f, f.shards.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.shards.close()
	warm := int64(fleetWarmup * f.sched.workers)

	if cfg.tr != nil {
		cfg.tr.reset()
		f.tt.reset()
		f.shards.mark(dedupeCounters...)
	}
	rt0 := readRuntime()
	roundOp := f.roundOp(ctx, cfg.tr)
	open := openLoop(ctx, f.sched.workers, fleetRate, int64(fleetRate*cfg.seconds*fleetOpenShare), func(w int, _ int64) error { return roundOp(w) })
	closed := closedLoop(ctx, f.sched.workers, cfg.window(1-fleetOpenShare), roundOp)
	rt1 := readRuntime()
	out.attempted = warm + open.ops + closed.ops
	out.failed = open.failed + closed.failed
	if ctx.Err() != nil {
		return out, ctx.Err()
	}

	out.attempted += 2 // the audit's quiesce and count
	if out.failed > 0 {
		return out, fmt.Errorf("%d of %d rounds failed, first: %v", out.failed, out.attempted, cmp.Or(open.firstErr, closed.firstErr))
	}
	got, err := f.audit()
	if err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: fleet audit: %d probes, lost 0, duplicated 0\n", got)

	p50, err := mustQuantile("round latency", open.lat, 0.50)
	if err != nil {
		return out, err
	}
	p99, err := mustQuantile("round latency", open.lat, 0.99)
	if err != nil {
		return out, err
	}
	if err := checkLateness(out, open.late, p50); err != nil {
		return out, err
	}
	out.ungated["round_p99_ms"] = ms(p99)
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = median(setups).Seconds()
	out.e2e["rss_peak_mb"] = rss
	out.ungated["round_p50_ms"] = ms(p50)
	roundsPerS := float64(closed.ops) / closed.elapsed.Seconds()
	out.ungated["rounds_per_s"] = roundsPerS
	// op_ms: the closed loop's mean round time per caller, the inverse
	// of rounds_per_s scaled by the callers in flight.
	out.e2e["op_ms"] = 1000 * float64(f.sched.workers) / roundsPerS
	out.samples["round_open_loop"] = len(open.lat)
	out.samples["round_closed_loop"] = len(closed.lat)
	out.samples["generator_lateness"] = len(open.late)

	ops := open.ops + closed.ops
	out.layer["gen.late_p99_us"] = us(quantileOrZero(open.late, 0.99))
	runtimeLayer(rt0, rt1, ops, out.layer)
	if cfg.tr != nil {
		netboardLayer(indexSpans(cfg.tr.snapshot()), f.tt, []*shardSet{f.shards}, cfg.tr.window(open.elapsed+closed.elapsed), ops, ops, out.layer)
	}
	return out, nil
}

// audit checks that every posted probe is on the board exactly once:
// after the shards quiesce, their distinct-probe count must equal the
// schedule's closed-form count.
func (f *fleet) audit() (int64, error) {
	f.cluster.Quiesce()
	got, want := f.cluster.ProbeCount(), f.sched.expected(f.issued)
	switch {
	case f.fails.n.Load() > 0:
		return got, fmt.Errorf("%d transport failures, first: %v", f.fails.n.Load(), f.fails.first.Load())
	case got != want:
		return got, fmt.Errorf("probe audit: board holds %d distinct probes, schedule posted %d (lost %d, duplicated %d)", got, want, max(want-got, 0), max(got-want, 0))
	}
	return got, nil
}

// splitmix is a tiny seeded generator (SplitMix64) for the schedule's
// parameters.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
