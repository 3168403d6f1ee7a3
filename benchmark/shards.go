package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/telemetry"
)

// shardSet is a set of loopback netboard servers run in-process, each
// over its own billboard.
type shardSet struct {
	urls    []string
	regs    []*telemetry.Registry // per shard; nil entries unless traced
	marks   map[string]int64      // counter values at the window start
	servers []*http.Server
	wg      sync.WaitGroup
}

// startShards starts n loopback shard servers, each over a fresh board
// of players × m. A traced run attaches a telemetry registry to each
// shard's board and server and wraps its handler in a span.
func startShards(n, players, m int, tr *tracer) (*shardSet, error) {
	s := &shardSet{regs: make([]*telemetry.Registry, n)}
	for i := range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		board := billboard.New(players, m)
		var opts []netboard.ServerOption
		if tr != nil {
			reg := telemetry.New()
			board.SetTelemetry(reg)
			opts = append(opts, netboard.WithTelemetry(reg))
			s.regs[i] = reg
		}
		var h http.Handler = netboard.NewServer(board, opts...)
		if tr != nil {
			h = traceHandler(tr, func(*http.Request) string { return "netboard.server.handle" }, h)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		s.servers = append(s.servers, srv)
		s.urls = append(s.urls, "http://"+ln.Addr().String())
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			srv.Serve(ln)
		}()
	}
	return s, nil
}

// close stops the servers and waits for their serve loops to return.
func (s *shardSet) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.wg.Wait()
}

// counter sums a telemetry counter across the shards' registries,
// counted from the last mark.
func (s *shardSet) counter(name string) int64 {
	var n int64
	for _, r := range s.regs {
		if r != nil {
			n += r.Snapshot().Counters[name]
		}
	}
	return n - s.marks[name]
}

// mark starts counting the named counters from their current values.
func (s *shardSet) mark(names ...string) {
	s.marks = nil
	m := make(map[string]int64, len(names))
	for _, n := range names {
		m[n] = s.counter(n)
	}
	s.marks = m
}

// transportFailures counts terminal client failures. Clients are built
// in degraded mode (a non-panicking OnError), so a transport failure is
// counted and surfaces as a failed operation instead of a panic.
type transportFailures struct {
	n     atomic.Int64
	first atomic.Value
}

func (f *transportFailures) onError(err error) {
	if f.n.Add(1) == 1 {
		f.first.Store(err)
		fmt.Fprintf(os.Stderr, "benchmark: transport failure: %v\n", err)
	}
}

// newCluster builds the cluster client over the shards with the binary
// codec. A traced run hands the clients a RoundTripper that wraps the
// same pooled transport the untraced run uses.
func newCluster(urls []string, seed uint64, tr *tracer, fails *transportFailures) (*netboard.Cluster, *tracingTransport, error) {
	ccfg := netboard.Config{Retries: 2, Codec: "binary", JitterSeed: seed | 1, OnError: fails.onError}
	var tt *tracingTransport
	if tr != nil {
		tt = newTracingTransport(ccfg.PooledHTTPClient().Transport, tr)
		ccfg.HTTPClient = &http.Client{Transport: tt}
	}
	cl, err := netboard.NewCluster(netboard.ClusterConfig{Shards: urls, Client: ccfg})
	if err != nil {
		return nil, nil, err
	}
	return cl, tt, nil
}

var dedupeCounters = []string{"netboard.server.dedupe.hits", "netboard.server.dedupe.applied"}

// netboardLayer fills the netboard.* and wire.* per-layer metrics from
// the spans and transport counters of a measured window, over ops
// operations of which rounds were fleet rounds. window is the part of
// the measured window whose spans were kept.
func netboardLayer(ix spanIndex, tt *tracingTransport, shards []*shardSet, window time.Duration, ops, rounds int64, out map[string]float64) {
	var clusterNames []string
	for name := range ix.byName {
		if strings.HasPrefix(name, "netboard.cluster.") {
			clusterNames = append(clusterNames, name)
		}
	}
	post, look := ix.durations("netboard.cluster.post"), ix.durations("netboard.cluster.lookup")
	out["netboard.cluster.post_us_p50"] = us(quantileOrZero(post, 0.5))
	out["netboard.cluster.post_us_p99"] = us(quantileOrZero(post, 0.99))
	out["netboard.cluster.lookup_us_p50"] = us(quantileOrZero(look, 0.5))
	out["netboard.cluster.lookup_us_p99"] = us(quantileOrZero(look, 0.99))
	out["netboard.cluster.self_us_p50"] = us(quantileOrZero(ix.selfTimes(clusterNames...), 0.5))

	reqs := ix.byName["netboard.client.request"]
	rtt := ix.durations("netboard.client.request")
	out["netboard.client.rtt_us_p50"] = us(quantileOrZero(rtt, 0.5))
	out["netboard.client.rtt_us_p99"] = us(quantileOrZero(rtt, 0.99))
	handle := ix.durations("netboard.server.handle")
	out["netboard.server.handle_us_p50"] = us(quantileOrZero(handle, 0.5))
	out["netboard.server.handle_us_p99"] = us(quantileOrZero(handle, 0.99))
	if window > 0 {
		out["netboard.client.blocked_frac"] = float64(covered(reqs, math.MinInt64, math.MaxInt64)) / float64(window)
	}
	requests, bytes := float64(tt.requests.Load()), float64(tt.bytes.Load())
	if ops > 0 {
		out["netboard.client.requests"] = requests / float64(ops)
	}
	if rounds > 0 {
		out["netboard.cluster.fanout_per_round"] = requests / float64(rounds)
		out["wire.bytes_per_round"] = bytes / float64(rounds)
	}
	if requests > 0 {
		out["wire.bytes_per_request"] = bytes / requests
	}
	out["netboard.client.retries"] = float64(tt.retries.Load())
	dialed, reused := tt.dialed.Load(), tt.reused.Load()
	out["netboard.client.conns_dialed"] = float64(dialed)
	if dialed+reused > 0 {
		out["netboard.client.conn_reuse_ratio"] = float64(reused) / float64(dialed+reused)
	}
	var hits, applied int64
	for _, s := range shards {
		hits += s.counter(dedupeCounters[0])
		applied += s.counter(dedupeCounters[1])
	}
	if hits+applied > 0 {
		out["netboard.server.dedupe_hit_ratio"] = float64(hits) / float64(hits+applied)
	}
}
