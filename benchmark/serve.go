package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"tellme"
	"tellme/internal/billboard"
	"tellme/internal/serve"
	"tellme/internal/telemetry"
)

// serve-recommend: the serving plane as tellmed runs it. A serve.Engine
// over an in-process board, its Run epoch loop, and serve.Handler on
// loopback; open-loop recommend reads plus player churn over HTTP.
const (
	servePlayers = 512
	serveM       = 256
	serveD       = 8
	serveAlpha   = 0.5
	// serveCapacity leaves room for the joins that wait for the epoch
	// boundary at which their predecessors' slots are freed.
	serveCapacity = servePlayers + 128
	// recommendRate and churnRate are the fixed offered rates, per second.
	recommendRate = 5000.0
	churnRate     = 20.0
	// serveClosedShare is the share of the run, at its start, in which
	// nproc readers run a closed loop that measures op_ms; the open-loop
	// reads take the rest. The churn runs for the whole run. The closed
	// loop ends ~5s before the full epoch that the 257th join starts.
	serveClosedShare = 0.4
	// serveEpochEvery is tellmed's default epoch interval; pending churn
	// starts an epoch earlier.
	serveEpochEvery = 5 * time.Second
	// visibleWait bounds the ?wait= read that times a join's visibility.
	visibleWait = 10 * time.Second
	// firstEpochWait bounds set-up's wait for the first, full epoch.
	firstEpochWait = time.Minute
	// The engine serves a churn joiner the empty vector until joiners
	// outnumber incumbents and it runs a full epoch (README.md,
	// "Seed-state facts"). A run of emptyCheckSeconds fails if that grows:
	// if more than maxEmptyJoins of its 400 joins were first served
	// empty, as on every seed 1-10, or more than maxEmptyReadShare of
	// its open-loop reads. A full epoch that placed no joiner would give
	// ~55% over the open loop's 8-20s; 25-30% were seen.
	emptyCheckSeconds = 20
	maxEmptyJoins     = 399
	maxEmptyReadShare = 0.35
)

// servePlane is one set-up of the serving plane.
type servePlane struct {
	engine *serve.Engine
	board  *tracedBoard // nil unless traced
	reg    *telemetry.Registry
	url    string
	client *http.Client
	tr     *tracer

	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// retire orders reads before retirements: a read holds it shared
	// from picking its player until the reply, and a churn op holds it
	// exclusively while it takes the oldest player out of the read set,
	// so no read is still in flight for a player when its DELETE is sent.
	retire sync.RWMutex

	mu      sync.Mutex
	live    []uint64          // ids reads may target, oldest first
	bits    map[uint64]string // id → registered preference vector
	joiners map[uint64]int64  // ids that joined by churn → first epoch that served them a vector, or 0
	empty   []int64           // per-worker count of reads served an empty vector
}

func setupServe(ctx context.Context, cfg runConfig) (*servePlane, error) {
	in := tellme.PlantedInstance(servePlayers, serveM, serveAlpha, serveD, cfg.seed)
	s := &servePlane{tr: cfg.tr, bits: make(map[uint64]string), joiners: make(map[uint64]int64), empty: make([]int64, cfg.workers)}
	scfg := serve.Config{M: serveM, Capacity: serveCapacity, Alpha: serveAlpha, Seed: cfg.seed}
	if cfg.tr != nil {
		s.reg = telemetry.New()
		mem := billboard.New(serveCapacity, serveM)
		mem.SetTelemetry(s.reg)
		s.board = &tracedBoard{b: mem}
		scfg.Board, scfg.Telemetry = s.board, s.reg
	}
	eng, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	s.engine = eng
	h := serve.Handler(eng, serve.HandlerConfig{})
	if cfg.tr != nil {
		h = traceHandler(cfg.tr, serveRoute, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	s.client = &http.Client{Transport: tr}
	ectx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln)
	}()
	go func() {
		defer s.wg.Done()
		eng.Run(ectx, serveEpochEvery)
	}()

	players := make([]map[string]string, servePlayers)
	for i, v := range in.Truth {
		players[i] = map[string]string{"bits": v.String()}
	}
	var joined struct{ IDs []uint64 }
	if err := s.call(ctx, http.MethodPost, "/v1/players/batch", map[string]any{"players": players}, &joined); err != nil {
		s.close()
		return nil, fmt.Errorf("bulk join: %w", err)
	}
	if len(joined.IDs) != servePlayers {
		s.close()
		return nil, fmt.Errorf("bulk join: %d ids for %d players", len(joined.IDs), servePlayers)
	}
	for i, id := range joined.IDs {
		s.bits[id] = in.Truth[i].String()
	}
	s.live = joined.IDs
	// Ready once the first epoch covering every player is published.
	// The engine waits for it longer than the HTTP read's 10s deadline,
	// which that full epoch outlasts under the race detector.
	wctx, wcancel := context.WithTimeout(ctx, firstEpochWait)
	_, _, err = eng.Recommend(wctx, s.live[0])
	wcancel()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("first epoch: %w", err)
	}
	if _, err := s.recommend(ctx, s.live[0], 0); err != nil {
		s.close()
		return nil, fmt.Errorf("first epoch: %w", err)
	}
	return s, nil
}

func (s *servePlane) close() {
	s.cancel()
	s.srv.Close()
	s.wg.Wait()
}

func serveRoute(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/recommend/"):
		return "serve.http.recommend"
	case r.URL.Path == "/v1/players/batch":
		return "serve.http.batch_join"
	case r.Method == http.MethodDelete:
		return "serve.http.leave"
	case r.URL.Path == "/v1/players":
		return "serve.http.join"
	}
	return "serve.http.other"
}

// call sends one JSON request and decodes a 2xx reply into reply (nil:
// the body is discarded). In a traced run the request is a gen.request
// span whose id the serve.http wrapper links to.
func (s *servePlane) call(ctx context.Context, method, path string, body, reply any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, rd)
	if err != nil {
		return err
	}
	var id uint64
	var start int64
	if s.tr != nil {
		id, start = s.tr.newID(), s.tr.now()
		req.Header.Set(headerSpan, strconv.FormatUint(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if s.tr != nil {
		s.tr.end(id, 0, "gen.request", start)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if reply == nil {
		return nil
	}
	return json.Unmarshal(data, reply)
}

// recommend reads id's recommendation and checks the reply: the right
// player, from a completed epoch, and a vector over all M objects. The
// one exception is a churn joiner, which the engine may serve the empty
// vector: a Refresh epoch places joiners only into the consensus groups
// it repaired, and the engine falls back to a full run only once
// joiners outnumber incumbents. recommend reports whether the vector
// was empty; runServe bounds how often that happens.
func (s *servePlane) recommend(ctx context.Context, id uint64, wait time.Duration) (bool, error) {
	path := "/v1/recommend/" + strconv.FormatUint(id, 10)
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var rep struct {
		ID    uint64
		Epoch int64
		Bits  string
	}
	if err := s.call(ctx, http.MethodGet, path, nil, &rep); err != nil {
		return false, err
	}
	s.mu.Lock()
	placed, joiner := s.joiners[id]
	if joiner && len(rep.Bits) == serveM && (placed == 0 || rep.Epoch < placed) {
		s.joiners[id] = rep.Epoch
	}
	s.mu.Unlock()
	if rep.ID != id || (len(rep.Bits) != serveM && !(joiner && rep.Bits == "")) || rep.Epoch < 1 {
		return false, fmt.Errorf("recommend %d: reply for id %d, epoch %d, %d bits", id, rep.ID, rep.Epoch, len(rep.Bits))
	}
	// A placed joiner is an incumbent from then on: it keeps a vector.
	if rep.Bits == "" && placed > 0 && rep.Epoch > placed {
		return false, fmt.Errorf("recommend %d: empty vector at epoch %d after a vector at epoch %d", id, rep.Epoch, placed)
	}
	return len(rep.Bits) == 0, nil
}

// readOp is one open-loop recommend read of a player the generator has
// not retired.
func (s *servePlane) readOp(ctx context.Context) arrival {
	return func(w int, j int64) error {
		s.retire.RLock()
		defer s.retire.RUnlock()
		s.mu.Lock()
		id := s.live[int(j%int64(len(s.live)))]
		s.mu.Unlock()
		empty, err := s.recommend(ctx, id, 0)
		if empty {
			s.empty[w]++
		}
		return err
	}
}

// emptyReads counts the reads served the empty vector so far. The read
// workers keep the counts, so call it only while no read runs.
func (s *servePlane) emptyReads() int64 {
	var n int64
	for _, c := range s.empty {
		n += c
	}
	return n
}

// churnOp replaces the oldest live player. POST joins a player with its
// preferences, and the new id goes to the visibility reader, which adds
// it to the read set once a ?wait= read has served it. Then the old
// player leaves the read set and DELETE retires it. Joining first makes
// the join's own wake-up start the epoch that covers it; after a DELETE
// the join would land either inside or after the leave's epoch, and the
// visibility time would switch between one and two epochs.
func (s *servePlane) churnOp(ctx context.Context, joined chan<- joinedAt) arrival {
	return func(int, int64) error {
		s.mu.Lock()
		old := s.live[0]
		bits := s.bits[old]
		s.mu.Unlock()
		var rep struct{ ID uint64 }
		if err := s.call(ctx, http.MethodPost, "/v1/players", map[string]string{"bits": bits}, &rep); err != nil {
			return err
		}
		s.mu.Lock()
		s.bits[rep.ID] = bits
		s.joiners[rep.ID] = 0
		s.mu.Unlock()
		joined <- joinedAt{rep.ID, time.Now()}

		s.retire.Lock()
		s.mu.Lock()
		s.live = s.live[1:]
		delete(s.bits, old)
		delete(s.joiners, old)
		s.mu.Unlock()
		s.retire.Unlock()
		return s.call(ctx, http.MethodDelete, "/v1/players/"+strconv.FormatUint(old, 10), nil, nil)
	}
}

type joinedAt struct {
	id uint64
	at time.Time
}

// epochWatch records the compute time of every published snapshot
// that a 1ms poll sees (traced runs only). The churn starts
// ~40 epochs a second; a snapshot replaced within the poll interval,
// as the full epoch's can be by the epoch of the joins queued during
// it, is missed and only counted.
type epochWatch struct {
	durations []int64
	missed    int64
}

func (s *servePlane) watchEpochs(stop <-chan struct{}) *epochWatch {
	w := &epochWatch{}
	last := s.engine.Snapshot()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return w
		case <-t.C:
		}
		if snap := s.engine.Snapshot(); snap != last {
			w.missed += snap.Epoch - last.Epoch - 1
			last = snap
			w.durations = append(w.durations, int64(snap.Duration))
		}
	}
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	out.rates["recommends"] = recommendRate
	out.rates["replacements"] = churnRate
	s, _, setups, err := timeSetups(setupReps, func() (*servePlane, func(), error) {
		s, err := setupServe(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	var board0, board1 boardTotals
	var snap0 telemetry.Snapshot
	var watch *epochWatch
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if cfg.tr != nil {
		cfg.tr.reset()
		board0, snap0 = s.board.totals(), s.reg.Snapshot()
		go func() {
			defer close(watchDone)
			watch = s.watchEpochs(stopWatch)
		}()
	}
	epochs0 := s.engine.CompletedEpochs()
	rt0 := readRuntime()

	// Churn and its visibility reads run beside the recommend reads for
	// the same window, each on a goroutine of its own, so up to nproc+2
	// requests are in flight. A ?wait= read blocks until an epoch covers
	// its joiner: 0.6-1.2s when joiners come to outnumber incumbents and
	// the engine runs a full epoch. On a read worker that wait would hold
	// up the reads queued behind it and be charged to their latency.
	nChurn := int64(churnRate * cfg.seconds)
	joined := make(chan joinedAt, nChurn)
	var churn loopStats
	var visible []int64
	var visibleFailed, visibleEmpty int64
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		churn = openLoop(ctx, 1, churnRate, nChurn, s.churnOp(ctx, joined))
		close(joined)
	}()
	go func() {
		defer side.Done()
		for j := range joined {
			empty, err := s.recommend(ctx, j.id, visibleWait)
			if empty {
				visibleEmpty++
			}
			if err != nil {
				if visibleFailed++; visibleFailed == 1 {
					fmt.Fprintf(os.Stderr, "benchmark: join visibility: %v\n", err)
				}
				continue
			}
			visible = append(visible, int64(time.Since(j.at)))
			s.mu.Lock()
			s.live = append(s.live, j.id)
			s.mu.Unlock()
		}
	}()
	read := s.readOp(ctx)
	next := make([]int64, cfg.workers)
	closed := closedLoop(ctx, cfg.workers, cfg.window(serveClosedShare), func(w int) error {
		j := next[w]*int64(cfg.workers) + int64(w)
		next[w]++
		return read(w, j)
	})
	empty0 := s.emptyReads()
	reads := openLoop(ctx, cfg.workers, recommendRate, int64(recommendRate*cfg.seconds*(1-serveClosedShare)), read)
	empty := s.emptyReads() - empty0
	side.Wait()
	window := reads.elapsed + closed.elapsed
	epochs := s.engine.CompletedEpochs() - epochs0
	rt1 := readRuntime()
	if cfg.tr != nil {
		close(stopWatch)
		<-watchDone
		board1 = s.board.totals()
	}

	// Each churn op is a DELETE and a POST; each join adds a ?wait= read.
	out.attempted = reads.ops + closed.ops + 2*churn.ops + int64(len(visible)) + visibleFailed
	out.failed = reads.failed + closed.failed + churn.failed + visibleFailed
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	if out.failed > 0 {
		return out, fmt.Errorf("%d of %d operations failed (reads %d, churn %d, visibility %d); first read error: %v, first churn error: %v",
			out.failed, out.attempted, reads.failed+closed.failed, churn.failed, visibleFailed, cmp.Or(reads.firstErr, closed.firstErr), churn.firstErr)
	}
	if epochs < 1 {
		return out, errors.New("no epoch completed during the run")
	}

	p50, err := mustQuantile("recommend latency", reads.lat, 0.50)
	if err != nil {
		return out, err
	}
	if err := checkLateness(out, reads.late, p50); err != nil {
		return out, err
	}
	p99, err := mustQuantile("recommend latency", reads.lat, 0.99)
	if err != nil {
		return out, err
	}
	vis, err := mustQuantile("join visibility", visible, 0.50)
	if err != nil {
		return out, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = median(setups).Seconds()
	out.e2e["rss_peak_mb"] = rss
	// op_ms: the closed loop's median read latency. Its mean, the
	// inverse of recommends_per_s, follows the machine's stalls: over ten
	// seeds it spread 9%, the median 3%.
	closedP50, err := mustQuantile("closed-loop recommend latency", closed.lat, 0.50)
	if err != nil {
		return out, err
	}
	out.e2e["op_ms"] = ms(closedP50)
	out.ungated["recommends_per_s"] = float64(closed.ops) / closed.elapsed.Seconds()
	out.ungated["recommend_p50_ms"] = ms(p50)
	out.ungated["recommend_p99_ms"] = ms(p99)
	out.ungated["join_visible_p50_ms"] = ms(vis)
	out.samples["recommend"] = len(reads.lat)
	out.samples["recommend_closed_loop"] = len(closed.lat)
	out.samples["join_visible"] = len(visible)
	out.samples["generator_lateness"] = len(reads.late)
	out.samples["recommend_empty"] = int(empty)
	out.samples["join_visible_empty"] = int(visibleEmpty)
	if cfg.seconds == emptyCheckSeconds && (visibleEmpty > maxEmptyJoins || float64(empty) > maxEmptyReadShare*float64(len(reads.lat))) {
		return out, fmt.Errorf("empty recommendations grew: %d of %d joins and %d of %d reads were served the empty vector, recorded at most %d and %.1f%%",
			visibleEmpty, len(visible), empty, len(reads.lat), maxEmptyJoins, maxEmptyReadShare*100)
	}

	out.layer["gen.late_p99_us"] = us(quantileOrZero(reads.late, 0.99))
	ops := reads.ops + closed.ops
	runtimeLayer(rt0, rt1, ops, out.layer)
	if cfg.tr != nil {
		ix := indexSpans(cfg.tr.snapshot())
		rec := ix.durations("serve.http.recommend")
		out.layer["serve.http.recommend_us_p50"] = us(quantileOrZero(rec, 0.5))
		out.layer["serve.http.recommend_us_p99"] = us(quantileOrZero(rec, 0.99))
		out.layer["serve.http.join_us_p50"] = us(quantileOrZero(ix.durations("serve.http.join"), 0.5))
		out.layer["serve.http.leave_us_p50"] = us(quantileOrZero(ix.durations("serve.http.leave"), 0.5))
		out.layer["serve.http.client_overhead_us_p50"] = us(quantileOrZero(ix.selfTimes("gen.request"), 0.5))
		out.validity["epoch_watch_missed"] = float64(watch.missed)
		out.layer["serve.engine.epoch_ms_p50"] = ms(quantileOrZero(watch.durations, 0.5))
		if len(watch.durations) > 0 {
			out.layer["serve.engine.epoch_ms_max"] = ms(slices.Max(watch.durations))
		}
		out.layer["serve.engine.epochs_per_s"] = float64(epochs) / window.Seconds()
		snap1 := s.reg.Snapshot()
		// Every epoch, seen by the poll or not, is a Refresh or a full run.
		out.layer["serve.engine.refresh_frac"] = float64(delta(snap0, snap1, "core.refresh.calls")) / float64(delta(snap0, snap1, "serve.epochs.completed"))
		out.layer["serve.engine.recommend_waited"] = float64(snap1.Counters["serve.recommend.waited"] - snap0.Counters["serve.recommend.waited"])
		boardLayer(board0, board1, snap0, snap1, ops, out.layer)
		coreLayer(snap0, snap1, ops, out.layer)
	}
	return out, nil
}
