package tellme

import (
	"errors"
	"fmt"
	"time"

	"tellme/internal/baseline"
	"tellme/internal/billboard"
	"tellme/internal/metrics"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// Baseline identifies one of the comparison algorithms from the paper's
// related work (see package baseline for details).
type Baseline int

const (
	// BaselineSolo probes every object individually (exact, cost m).
	BaselineSolo Baseline = iota
	// BaselineMajority samples a budget and fills gaps with the global
	// per-object majority.
	BaselineMajority
	// BaselineKNN samples a budget and adopts the k nearest players'
	// majority grades (memory-based collaborative filtering).
	BaselineKNN
	// BaselineSpectral reconstructs via a sampled rank-k SVD in the
	// style of Drineas et al. [6].
	BaselineSpectral
)

// String names the baseline.
func (b Baseline) String() string {
	switch b {
	case BaselineSolo:
		return "solo"
	case BaselineMajority:
		return "majority"
	case BaselineKNN:
		return "kNN"
	case BaselineSpectral:
		return "spectral"
	default:
		return "invalid"
	}
}

// BaselineOptions configure RunBaseline.
type BaselineOptions struct {
	// Baseline picks the algorithm.
	Baseline Baseline
	// Budget is the per-player probe budget for the sampled baselines
	// (ignored by BaselineSolo).
	Budget int
	// K is the neighbor count for BaselineKNN (default 8).
	K int
	// Rank and Iters configure BaselineSpectral (defaults 2 and 10).
	Rank, Iters int
	// Seed makes the run reproducible.
	Seed uint64
	// Parallelism bounds the worker pool (0 = GOMAXPROCS).
	Parallelism int
}

// RunBaseline executes a baseline on the instance, using the same probe
// engine and cost accounting as Run, so reports are directly comparable.
func RunBaseline(in *Instance, opt BaselineOptions) (*Report, error) {
	if in == nil || in.N == 0 || in.M == 0 {
		return nil, errors.New("tellme: empty instance")
	}
	if opt.Baseline != BaselineSolo && opt.Budget <= 0 {
		return nil, fmt.Errorf("tellme: baseline %v needs a positive budget", opt.Baseline)
	}
	if opt.K <= 0 {
		opt.K = 8
	}
	if opt.Rank <= 0 {
		opt.Rank = 2
	}
	if opt.Iters <= 0 {
		opt.Iters = 10
	}
	src := rng.NewSource(opt.Seed)
	board := billboard.New(in.N, in.M)
	engine := probe.NewEngine(in, board, src.Child("engine", 0))
	runner := sim.NewRunner(opt.Parallelism)

	start := time.Now()
	var outputs []Partial
	switch opt.Baseline {
	case BaselineSolo:
		outputs = baseline.Solo(engine, runner)
	case BaselineMajority:
		outputs = baseline.SampleMajority(engine, runner, opt.Budget, src.Child("algo", 0))
	case BaselineKNN:
		outputs = baseline.KNN(engine, runner, opt.Budget, opt.K, src.Child("algo", 0))
	case BaselineSpectral:
		outputs = baseline.Spectral(engine, runner, opt.Budget, opt.Rank, opt.Iters, src.Child("algo", 0))
	default:
		return nil, fmt.Errorf("tellme: unknown baseline %d", opt.Baseline)
	}
	elapsed := time.Since(start)

	st := metrics.Probes(engine)
	rep := &Report{
		Outputs:     outputs,
		MaxProbes:   st.Max,
		TotalProbes: st.Total,
		MeanProbes:  st.Mean,
		Duration:    elapsed,
	}
	rep.Communities = gradeCommunities(in, outputs)
	return rep, nil
}
