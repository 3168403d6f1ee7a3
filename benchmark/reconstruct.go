package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"tellme"
	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
	"tellme/internal/telemetry"
)

// reconstruct-local and reconstruct-remote: the paper's algorithm
// (AlgoAuto: unknown diameter) on a planted instance, in process and
// over 4 loopback netboard shards with the binary codec.
const (
	reconAlpha  = 0.5
	localN      = 1024
	localD      = 8
	remoteN     = 64
	remoteD     = 4
	remoteShard = 4
	// reconInstances is how many planted instances a run reconstructs,
	// in turn, until its seconds are spent: at least once each. The
	// time of a reconstruction differs by up to ~15% from instance to
	// instance, so one instance per seed would make op_ms follow the
	// seed; the mean over several follows it less.
	reconInstances = 4
)

// instanceSeed is the seed of instance k of a run on seed: instance 0
// is the seed's own, which golden records.
func instanceSeed(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

// instances generates a run's planted instances, n = m.
func instances(seed uint64, n, d int) []*tellme.Instance {
	ins := make([]*tellme.Instance, reconInstances)
	for k := range ins {
		ins[k] = tellme.PlantedInstance(n, n, reconAlpha, d, instanceSeed(seed, k))
	}
	return ins
}

// golden holds probes_max and stretch of the seed's instance 0 at the
// commit that defined the benchmark, per workload and seed. They repeat
// exactly, so a run on one of these seeds that reads anything else
// means the algorithm's output changed. Other seeds are checked for
// determinism (and, for reconstruct-remote, against an in-process run)
// only.
var golden = map[string]map[uint64]struct {
	probesMax int64
	stretch   float64
}{
	"reconstruct-local": {
		1:  {38500, 0.5},
		2:  {37847, 0.5},
		3:  {38277, 0.5},
		4:  {38343, 0.5},
		5:  {38193, 0.5},
		6:  {38116, 0.5},
		7:  {38114, 0.5},
		8:  {38639, 0.5},
		9:  {38663, 0.5},
		10: {38016, 0.5},
	},
	"reconstruct-remote": {
		1:  {3045, 0.5},
		2:  {3078, 0.5},
		3:  {3188, 0},
		4:  {3313, 0},
		5:  {3087, 0.5},
		6:  {3158, 0.5},
		7:  {3038, 0.5},
		8:  {3064, 0.25},
		9:  {3180, 0.5},
		10: {3073, 0.5},
	},
}

// reconRun is one timed reconstruction.
type reconRun struct {
	k      int // the instance
	wall   time.Duration
	report *tellme.Report
	print  [32]byte           // digest of everything the run outputs
	board  boardTotals        // traced, in process: the billboard decorator's clock
	snap   telemetry.Snapshot // traced: the run's registry
}

// fingerprint digests a report's outputs and costs: two runs with equal
// fingerprints produced byte-identical results.
func fingerprint(r *tellme.Report) [32]byte {
	h := sha256.New()
	for _, o := range r.Outputs {
		fmt.Fprintln(h, o.String())
	}
	fmt.Fprintln(h, r.MaxProbes, r.TotalProbes, r.CompletedEpochs)
	for _, c := range r.Communities {
		fmt.Fprintln(h, c.Size, c.Diameter, c.Discrepancy, c.Stretch, c.MeanErr)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func reconOptions(seed uint64) tellme.Options {
	return tellme.Options{Algorithm: tellme.AlgoAuto, Alpha: reconAlpha, Seed: seed}
}

// runLocal is one in-process reconstruction; a traced run hands
// tellme.Run a decorated in-memory board and a telemetry registry.
func runLocal(in *tellme.Instance, seed uint64, traced bool) (reconRun, error) {
	opt := reconOptions(seed)
	start := time.Now()
	var tb *tracedBoard
	if traced {
		opt.Telemetry = telemetry.New()
		mem := billboard.New(in.N, in.M)
		mem.SetTelemetry(opt.Telemetry)
		tb = &tracedBoard{b: mem}
		opt.Board = tb
	}
	rep, err := tellme.Run(in, opt)
	r := reconRun{wall: time.Since(start), report: rep}
	if err != nil {
		return r, err
	}
	r.print = fingerprint(rep)
	if tb != nil {
		r.board, r.snap = tb.totals(), opt.Telemetry.Snapshot()
	}
	return r, nil
}

func runReconstructLocal(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	generate := func() ([]*tellme.Instance, func(), error) {
		return instances(cfg.seed, localN, localD), func() {}, nil
	}
	ins, _, setups, _ := timeSetups(setupReps, generate)
	// A process's first reconstruction runs 5-15% slower than its
	// repeats (the heap's pages are still being faulted in), so one
	// untimed run comes first.
	if _, err := runLocal(ins[0], instanceSeed(cfg.seed, 0), false); err != nil {
		return out, err
	}
	rt0 := readRuntime()
	runs, err := timeRuns(ctx, cfg, func(k int) (reconRun, error) {
		r, err := runLocal(ins[k], instanceSeed(cfg.seed, k), cfg.tr != nil)
		setups, _ = interleaveSetups(setups, generate)
		return r, err
	})
	rt1 := readRuntime()
	out.attempted, out.failed = int64(len(runs)), 0
	if err != nil {
		out.failed = 1
		return out, err
	}
	// Each instance's first run is the reference for its repeats.
	var want [reconInstances][32]byte
	for _, r := range runs[:reconInstances] {
		want[r.k] = r.print
	}
	if err := checkRuns("reconstruct-local", cfg.seed, runs, want); err != nil {
		return out, err
	}
	return reconOutcome(out, cfg, setups, runs, rt0, rt1, nil)
}

// remoteBoard is the remote workload's set-up: fresh loopback shards
// and the cluster client over them.
type remoteBoard struct {
	shards *shardSet
	cl     *netboard.Cluster
	tt     *tracingTransport
	fails  *transportFailures
}

func setupRemote(in *tellme.Instance, cfg runConfig) (*remoteBoard, func(), error) {
	shards, err := startShards(remoteShard, in.N, in.M, cfg.tr)
	if err != nil {
		return nil, nil, err
	}
	rb := &remoteBoard{shards: shards, fails: &transportFailures{}}
	if rb.cl, rb.tt, err = newCluster(shards.urls, cfg.seed, cfg.tr, rb.fails); err != nil {
		shards.close()
		return nil, nil, err
	}
	return rb, shards.close, nil
}

// runRemote is one reconstruction against fresh loopback shards.
func runRemote(ctx context.Context, in *tellme.Instance, seed uint64, cfg runConfig) (reconRun, *shardSet, *tracingTransport, error) {
	rb, closeShards, err := setupRemote(in, cfg)
	if err != nil {
		return reconRun{}, nil, nil, err
	}
	shards, cl, tt, fails := rb.shards, rb.cl, rb.tt, rb.fails
	opt := reconOptions(seed)
	var board boardclient.Interface = cl
	var tc *tracedCluster
	if cfg.tr != nil {
		opt.Telemetry = telemetry.New()
		tc = newTracedCluster(ctx, cl, cfg.tr)
		board = tc
	}
	opt.Board = board
	start := time.Now()
	rep, err := tellme.Run(in, opt)
	r := reconRun{wall: time.Since(start), report: rep}
	closeShards()
	if err == nil && fails.n.Load() > 0 {
		err = fmt.Errorf("%d transport failures, first: %v", fails.n.Load(), fails.first.Load())
	}
	if err != nil {
		return r, nil, nil, err
	}
	r.print = fingerprint(rep)
	if tc != nil {
		r.snap = opt.Telemetry.Snapshot()
		r.board.readNs = tc.busy.Load()
	}
	return r, shards, tt, nil
}

func runReconstructRemote(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	ins := instances(cfg.seed, remoteN, remoteD)
	// The oracle: each instance with the same seed in process.
	var want [reconInstances][32]byte
	for k, in := range ins {
		ref, err := runLocal(in, instanceSeed(cfg.seed, k), false)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		want[k] = ref.print
	}
	// Every reconstruction needs fresh boards, so each builds its own
	// shards; setup_s times the same set-up on its own. The instances
	// share n and m, so they share the set-up.
	setup := func() (*remoteBoard, func(), error) { return setupRemote(ins[0], cfg) }
	_, teardown, setups, err := timeSetups(setupReps, setup)
	if err != nil {
		return nil, err
	}
	discard(teardown)
	if cfg.tr != nil {
		cfg.tr.reset()
	}
	remote := &remoteRuns{}
	rt0 := readRuntime()
	runs, err := timeRuns(ctx, cfg, func(k int) (reconRun, error) {
		r, shards, tt, err := runRemote(ctx, ins[k], instanceSeed(cfg.seed, k), cfg)
		// Only the traced run reads them afterwards. Kept in every run,
		// each run's shards would add ~15MB to the peak RSS, which would
		// then follow how many runs the machine's speed allowed.
		if cfg.tr != nil {
			remote.tts, remote.shards = append(remote.tts, tt), append(remote.shards, shards)
		}
		if err != nil {
			return r, err
		}
		setups, err = interleaveSetups(setups, setup)
		return r, err
	})
	rt1 := readRuntime()
	out.attempted = int64(len(runs))
	if err != nil {
		out.failed = 1
		return out, err
	}
	if err := checkRuns("reconstruct-remote", cfg.seed, runs, want); err != nil {
		return out, err
	}
	return reconOutcome(out, cfg, setups, runs, rt0, rt1, remote)
}

// interleaveSetups times setupReps more set-ups after a reconstruction
// and appends their durations to took. The reconstruct workloads' set-up
// takes milliseconds, so timing it only before the window would make
// setup_s a reading of the process's first second on a shared machine.
func interleaveSetups[T any](took []time.Duration, setup func() (T, func(), error)) ([]time.Duration, error) {
	_, teardown, more, err := timeSetups(setupReps, setup)
	if err == nil {
		discard(teardown)
	}
	return append(took, more...), err
}

// timeRuns reconstructs the instances in turn until the run's seconds
// are spent, each at least once; one(k) runs instance k.
func timeRuns(ctx context.Context, cfg runConfig, one func(k int) (reconRun, error)) ([]reconRun, error) {
	var runs []reconRun
	start := time.Now()
	for len(runs) < reconInstances || time.Since(start) < cfg.window(1) {
		if err := ctx.Err(); err != nil {
			return runs, err
		}
		k := len(runs) % reconInstances
		r, err := one(k)
		r.k = k
		if err != nil {
			return append(runs, r), err
		}
		runs = append(runs, r)
		// Stop early rather than overrun by most of a reconstruction.
		if len(runs) >= reconInstances && time.Since(start)+r.wall/2 > cfg.window(1) {
			break
		}
	}
	return runs, nil
}

// checkRuns requires every run to match its instance's want byte for
// byte, and instance 0 the seed's golden probes_max and stretch where
// recorded.
func checkRuns(workload string, seed uint64, runs []reconRun, want [reconInstances][32]byte) error {
	for i, r := range runs {
		if r.print != want[r.k] {
			return fmt.Errorf("run %d: outputs differ from the reference run", i)
		}
		if len(r.report.Communities) == 0 {
			return fmt.Errorf("run %d: no community graded", i)
		}
	}
	rep := runs[0].report
	if g, ok := golden[workload][seed]; ok && (rep.MaxProbes != g.probesMax || rep.Communities[0].Stretch != g.stretch) {
		return fmt.Errorf("seed %d: probes_max %d stretch %v, recorded %d and %v", seed, rep.MaxProbes, rep.Communities[0].Stretch, g.probesMax, g.stretch)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d runs identical, probes_max %d, stretch %v\n", workload, len(runs), rep.MaxProbes, rep.Communities[0].Stretch)
	return nil
}

// remoteRuns holds each remote reconstruction's RoundTripper and shards.
type remoteRuns struct {
	tts    []*tracingTransport
	shards []*shardSet
}

// reconOutcome reduces the runs to the metrics; remote is nil for the
// in-process workload.
func reconOutcome(out *outcome, cfg runConfig, setups []time.Duration, runs []reconRun, rt0, rt1 runtimeSample, remote *remoteRuns) (*outcome, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	// op_ms: the mean over the instances of each one's median wall time.
	var walls [reconInstances][]time.Duration
	for _, r := range runs {
		walls[r.k] = append(walls[r.k], r.wall)
	}
	var total time.Duration
	for _, w := range walls {
		total += median(w)
	}
	mean := total / reconInstances
	rep := runs[0].report
	out.e2e["setup_s"] = median(setups).Seconds()
	out.e2e["rss_peak_mb"] = rss
	out.e2e["op_ms"] = ms(int64(mean))
	out.ungated["reconstruct_s"] = mean.Seconds()
	// probes_max and stretch of instance 0 repeat exactly for a seed;
	// checkRuns holds them to the recorded values.
	out.ungated["probes_max"] = float64(rep.MaxProbes)
	out.ungated["stretch"] = rep.Communities[0].Stretch
	out.samples["reconstructions"] = len(runs)

	ops := int64(len(runs))
	runtimeLayer(rt0, rt1, ops, out.layer)
	if cfg.tr == nil {
		return out, nil
	}
	// Each run has its own registry and board, so their counters add.
	var window time.Duration
	var board boardTotals
	sum := telemetry.Snapshot{Counters: map[string]int64{}}
	for _, r := range runs {
		window += r.wall
		board = board.add(r.board)
		for k, v := range r.snap.Counters {
			sum.Counters[k] += v
		}
	}
	none := telemetry.Snapshot{}
	coreLayer(none, sum, ops, out.layer)
	probeLayer(sum, ops, out.layer)
	boardNs := board.postNs + board.readNs
	if remote == nil {
		boardLayer(boardTotals{}, board, none, sum, ops, out.layer)
	} else {
		netboardLayer(indexSpans(cfg.tr.snapshot()), sumTransports(remote.tts), remote.shards, cfg.tr.window(window), ops, 0, out.layer)
	}
	// tellme.self_ms: the run's wall time less its time inside board
	// calls, the latter summed over the player workers and so divided
	// by their number.
	out.layer["tellme.self_ms"] = ms(int64(window)-boardNs/int64(cfg.workers)) / float64(ops)
	return out, nil
}
