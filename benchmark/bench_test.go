package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tellme"
	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
)

func TestQuantileNearestRankAndSupport(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[len(v)-1-i] = int64(i + 1) // 1000..1, so quantile must sort
	}
	for _, c := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.5, 500, true},
		{0.99, 990, true},   // 10 samples beyond: supported
		{0.995, 995, false}, // 5 beyond: not
		{0.001, 1, true},
	} {
		got, ok := quantile(v, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(1..1000, %v) = %d, %v; want %d, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(make([]int64, 19), 0.5); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must be unsupported")
	}
	if _, ok := quantile(make([]int64, 20), 0.5); !ok {
		t.Error("p50 of 20 samples has 10 beyond it and must be supported")
	}
	if _, err := mustQuantile("x", make([]int64, 999), 0.99); err == nil {
		t.Error("p99 of 999 samples must be refused")
	}
	if got := median([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2 (mean of the middle pair, truncated)", got)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 29, End: 31}}
	if got := covered(spans, 0, 100); got != 26 {
		t.Errorf("union = %d, want 26", got)
	}
	if got := covered(spans, 8, 25); got != 12 {
		t.Errorf("clipped union = %d, want 12", got)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	for j := int64(0); j < 100; j++ {
		if d := dueOffset(j, 250); d != time.Duration(j)*4*time.Millisecond {
			t.Fatalf("dueOffset(%d, 250/s) = %v", j, d)
		}
	}
	const n, workers, rate = 60, 3, 600.0
	var mu sync.Mutex
	issued := map[int][]time.Duration{}
	start := time.Now()
	st := openLoop(context.Background(), workers, rate, n, func(w int, j int64) error {
		mu.Lock()
		defer mu.Unlock()
		if want := int64(w + len(issued[w])*workers); j != want {
			t.Errorf("worker %d was handed arrival %d, want %d", w, j, want)
		}
		issued[w] = append(issued[w], time.Since(start))
		return nil
	})
	if st.ops != n || len(st.lat) != n || st.failed != 0 {
		t.Fatalf("ops %d lat %d failed %d, want %d, %d, 0", st.ops, len(st.lat), st.failed, n, n)
	}
	for w := range workers {
		if len(issued[w]) != n/workers {
			t.Errorf("worker %d ran %d arrivals, want %d", w, len(issued[w]), n/workers)
		}
		for k, at := range issued[w] {
			// Worker w's k-th arrival is arrival w + k·W, never sent early.
			if due := dueOffset(int64(w+k*workers), rate); at < due {
				t.Errorf("worker %d arrival %d sent at %v, due %v", w, k, at, due)
			}
		}
	}
	for _, l := range st.lat {
		if l < 0 {
			t.Fatalf("negative latency %d", l)
		}
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	// One worker, arrivals due every 1ms, each taking 5ms: arrival j
	// completes at about 5(j+1)ms but was due at j ms, so its latency
	// grows by about 4ms per arrival instead of staying at 5ms.
	st := openLoop(context.Background(), 1, 1000, 10, func(int, int64) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if last := time.Duration(st.lat[9]); last < 40*time.Millisecond {
		t.Errorf("last arrival's latency %v: not charged from its due time", last)
	}
}

func TestCheckLateness(t *testing.T) {
	late := make([]int64, 100) // 1µs to 100µs: p50 50µs, p99 99µs
	for i := range late {
		late[i] = int64(i+1) * 1000
	}
	out := newOutcome()
	if err := checkLateness(out, late, 600_000); err != nil {
		t.Errorf("p50 lateness 50µs against a 600µs p50: %v", err)
	}
	if got := out.validity["generator_late_p99_us"]; got != 99 {
		t.Errorf("recorded p99 lateness %vµs, want 99", got)
	}
	if err := checkLateness(out, late, 400_000); err == nil {
		t.Error("p50 lateness 50µs against a 400µs p50 passed")
	}
}

func TestInFlightCap(t *testing.T) {
	const workers = 2
	var inFlight, peak atomic.Int64
	fn := func(int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	}
	// An offered rate far above what two callers can serve.
	openLoop(context.Background(), workers, 1e6, 200, func(w int, _ int64) error { return fn(w) })
	closedLoop(context.Background(), workers, 20*time.Millisecond, fn)
	if peak.Load() != workers {
		t.Errorf("peak in flight %d, want %d", peak.Load(), workers)
	}
}

func TestExpectedProbesMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ players, m, batch, workers int }{
		{12, 8, 2, 3}, {12, 8, 4, 4}, {10, 6, 3, 2}, {7, 4, 4, 1},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			s := newFleetSchedule(seed, c.players, c.m, c.batch, c.workers)
			seen := map[[2]int]bool{}
			owner := map[int]int{}
			issued := make([]int64, s.workers)
			objs, grades := make([]int, c.batch), make([]byte, c.batch)
			// Uneven per-worker progress, as a closed loop leaves it.
			for step := 0; step < 200; step++ {
				w := (step * 7 / 3) % s.workers
				i := int64(w) + issued[w]*int64(s.workers)
				issued[w]++
				p := s.round(i, objs, grades)
				if o, ok := owner[p]; ok && o != w {
					t.Fatalf("%+v seed %d: player %d written by workers %d and %d", c, seed, p, o, w)
				}
				owner[p] = w
				for _, o := range objs {
					seen[[2]int{p, o}] = true
				}
				if got, want := s.expected(issued), int64(len(seen)); got != want {
					t.Fatalf("%+v seed %d step %d: closed form %d, brute force %d", c, seed, step, got, want)
				}
			}
		}
	}
}

// The optional interfaces core, baseline, serve and the fleet audit
// look for on a board. A decorator that dropped one would silently move
// its caller onto a slower path.
type (
	optContextBinder interface {
		BindContext(ctx context.Context) boardclient.Interface
	}
	optRefPoster interface {
		TopicRef(name string) billboard.TopicRef
		PostValuesRef(r billboard.TopicRef, player int, vals []uint32)
	}
	optBatchPoster interface {
		TopicRef(name string) billboard.TopicRef
		PostValuesBatchRef(r billboard.TopicRef, players []int, rows [][]uint32)
	}
	optHinter interface {
		HintPosts(name string, vectors, values int)
	}
	optClearer interface{ ClearProbes(p int, objs []int) }
	optTallier interface {
		ProbeTally(ones, total []int) ([]int, []int)
	}
	optQuiescer     interface{ Quiesce() }
	optProbeCounter interface{ ProbeCount() int64 }
)

var optionalInterfaces = []reflect.Type{
	reflect.TypeFor[optContextBinder](),
	reflect.TypeFor[optRefPoster](),
	reflect.TypeFor[optBatchPoster](),
	reflect.TypeFor[optHinter](),
	reflect.TypeFor[optClearer](),
	reflect.TypeFor[optTallier](),
	reflect.TypeFor[optQuiescer](),
	reflect.TypeFor[optProbeCounter](),
}

func TestDecoratorsForwardExactlyTheOptionalInterfaces(t *testing.T) {
	cl, err := netboard.NewCluster(netboard.ClusterConfig{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	mem := billboard.New(4, 4)
	for _, c := range []struct {
		inner, wrapped any
	}{
		{cl, newTracedCluster(context.Background(), cl, newTracer())},
		{mem, &tracedBoard{b: mem}},
	} {
		for _, it := range optionalInterfaces {
			in := reflect.TypeOf(c.inner).Implements(it)
			out := reflect.TypeOf(c.wrapped).Implements(it)
			if in != out {
				t.Errorf("%T implements %v: %v, its decorator %T: %v", c.inner, it, in, c.wrapped, out)
			}
		}
	}
}

func TestTracedReconstructionMatchesUntraced(t *testing.T) {
	in := tellme.PlantedInstance(64, 64, reconAlpha, 4, 3)
	plain, err := runLocal(in, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runLocal(in, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.print != plain.print {
		t.Error("in-process: traced reconstruction differs from untraced")
	}
	if traced.board.postCalls == 0 || traced.board.readCalls == 0 {
		t.Errorf("billboard decorator saw no calls: %+v", traced.board)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		ctx, cancel := context.WithCancel(context.Background())
		remote, _, _, err := runRemote(ctx, in, 3, runConfig{seed: 3, workers: 2, tr: tr})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if remote.print != plain.print {
			t.Errorf("remote (traced %v) differs from in-process", tr != nil)
		}
	}
}

func TestTracedFleetMatchesUntraced(t *testing.T) {
	dims := fleetDims{players: 40, m: 16, batch: 4, shards: 2}
	var counts []int64
	for _, tr := range []*tracer{nil, newTracer()} {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := setupFleet(ctx, runConfig{seed: 9, workers: 2, tr: tr}, dims, 30)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.audit()
		f.shards.close()
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] || counts[0] != expectedProbes(60, 40, 4, 16) {
		t.Errorf("audited probe counts untraced %d, traced %d, want %d", counts[0], counts[1], expectedProbes(60, 40, 4, 16))
	}
}

func TestTracedServeAnswersLikeUntraced(t *testing.T) {
	var answers [][]string
	for _, tr := range []*tracer{nil, newTracer()} {
		ctx, cancel := context.WithCancel(context.Background())
		s, err := setupServe(ctx, runConfig{seed: 5, workers: 2, tr: tr})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		var got []string
		for _, id := range s.live[:16] {
			var rep struct{ Bits string }
			if err := s.call(ctx, "GET", "/v1/recommend/"+itoa(id), nil, &rep); err != nil {
				t.Fatal(err)
			}
			got = append(got, rep.Bits)
		}
		s.close()
		cancel()
		answers = append(answers, got)
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Error("traced serving plane answered differently from untraced")
	}
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the harness %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func itoa(id uint64) string { b, _ := json.Marshal(id); return string(b) }
