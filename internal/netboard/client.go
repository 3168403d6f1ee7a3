package netboard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// Client implements boardclient.Interface against a remote Server.
//
// billboard.Interface is error-free (the model treats the billboard as
// reliable shared memory), so transport failures are routed to
// Config.OnError, which defaults to panicking with a *TransportError.
// If OnError returns instead of panicking, the client enters degraded
// mode: the failed call returns the zero value of its type
// (LookupProbe → (0,false), Postings → nil, ProbeCount → 0, ...), the
// error is recorded, and Err/Failures report it. Degraded zero values
// are indistinguishable from an empty board at the call site, so any
// caller installing a non-panicking OnError MUST check Err before
// trusting results — a dead transport must not masquerade as an empty
// billboard.
//
// Every mutating request carries a client-generated idempotency key
// (HeaderRequestID) that is reused verbatim across retries, so a retry
// of a request the server already applied — but whose response was lost
// — is deduplicated server-side instead of double-applied.
//
// Probe operations travel over the batched wire protocol — a single
// PostProbe/LookupProbe is a one-element batch — and the vote reads
// (Votes, ValueVotes, PopularVectors) go through an epoch-tagged
// per-topic snapshot cache that re-downloads a tally only when the
// topic actually changed.
//
// A Client from NewClient runs its requests uncancellable
// (context.Background semantics). BindContext returns a copy of the
// client carrying another context: the copy shares its configuration
// and every piece of mutable state with the original, and its every
// request — including retry backoff sleeps — aborts when that context
// is cancelled. The probe engine binds the run context this way, so a
// deadline cuts through in-flight HTTP calls instead of waiting out the
// full retry schedule. Construct clients with NewClient or
// NewClientWithConfig; the zero Client is not usable.
type Client struct {
	// ctx governs every request this client issues (see BindContext).
	ctx context.Context
	// core is the configuration and mutable state shared by the client
	// and every copy BindContext makes of it.
	core *clientCore
}

// clientCore is the state behind a Client that its context-bound
// copies share.
type clientCore struct {
	// baseURL is the server's root, e.g. "http://localhost:7070".
	baseURL string
	// cfg is the normalized configuration, with HTTPClient and
	// TelemetryPrefix resolved to their defaults when unset; codec is
	// the wire codec cfg.Codec names.
	cfg   Config
	codec wire.Codec
	// sleep stubs the backoff wait for tests. The stub is only invoked
	// with a live context; a cancelled context skips the wait entirely,
	// which is what the cancellation tests assert.
	sleep func(time.Duration)

	// jitter is the lazily seeded backoff jitter stream (see
	// Config.JitterSeed), guarded by jitterMu: one client may retry from
	// many player goroutines at once.
	jitterMu sync.Mutex
	jitter   *mrand.Rand

	// Request-id state: a random per-client prefix plus a sequence
	// number, unique across processes sharing one server.
	idOnce   sync.Once
	idPrefix string
	idSeq    atomic.Uint64

	// Degraded-mode record: first transport error and failure count.
	errMu    sync.Mutex
	firstErr error
	failures atomic.Int64

	// Connection-accounting instruments (lazily resolved once; nil when
	// telemetry is off). See traceContext.
	connOnce                            sync.Once
	connDialed, connReused, connStalled *telemetry.Counter

	// Per-topic snapshot cache keyed by the server's (gen, epoch) stamp.
	cacheMu sync.Mutex
	cache   map[string]*topicCacheEntry

	// Topic posts a cancelled context cut short, by topic, for DropTopic
	// to settle (see settle).
	pendMu  sync.Mutex
	pending map[string][]pendingPost
}

// pendingPost is one topic post whose request was cut short by
// cancellation and may still reach the server: its encoded body and
// request id, kept so settle can re-send it as the same request, and
// when it was cut short.
type pendingPost struct {
	path string
	body []byte
	id   string
	at   time.Time
}

// topicCacheEntry is one topic's decoded tallies at a (gen, epoch) stamp.
type topicCacheEntry struct {
	gen, epoch uint64
	votes      []billboard.Vote
	valVotes   []billboard.ValueVote
}

var _ boardclient.Interface = (*Client)(nil)
var _ boardclient.ContextBinder = (*Client)(nil)

// TransportError is a terminal transport/protocol failure: retries were
// exhausted (or cut short by cancellation) for one logical request. It
// is the value fail panics with when no OnError is installed, and the
// value recorded by Err, so callers can errors.As for it — and
// errors.Is through it to the underlying cause (e.g.
// context.DeadlineExceeded when a deadline cut the retry loop short).
type TransportError struct {
	// Err is the last attempt's failure.
	Err error
}

// Error implements error, keeping the historical "netboard: " prefix.
func (e *TransportError) Error() string { return fmt.Sprintf("netboard: %v", e.Err) }

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// ProtoError reports a wire-protocol version mismatch: a 2xx response
// arrived without the expected "Tellme-Proto: 1" stamp, meaning the
// peer is not a tellme billboard of this protocol generation (an older
// server, or something else entirely). It is terminal — retries cannot
// change what the peer speaks — and reaches the caller wrapped in the
// *TransportError that fail records/panics with, so
// errors.As(err, &pe) with a *ProtoError target matches.
type ProtoError struct {
	// Path is the endpoint whose response lacked the stamp.
	Path string
	// Got is the Tellme-Proto value received ("" when absent).
	Got string
}

// Error implements error.
func (e *ProtoError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("netboard: %s: server did not identify protocol %s (missing %s header; not a tellme billboard?)", e.Path, ProtoVersion, HeaderProto)
	}
	return fmt.Sprintf("netboard: %s: protocol version mismatch: server speaks %s=%s, client speaks %s", e.Path, HeaderProto, e.Got, ProtoVersion)
}

// NewClient returns a Client for the server at baseURL with the
// zero-value Config; use NewClientWithConfig to tune retries, failure
// handling, telemetry and the codec in one place.
func NewClient(baseURL string) *Client {
	return NewClientWithConfig(baseURL, Config{})
}

// BindContext implements boardclient.ContextBinder: the returned copy
// of c shares all its state (configuration, request ids, snapshot
// cache, degraded-mode record) but runs every request under ctx —
// in-flight HTTP calls are aborted and backoff sleeps return early when
// ctx is cancelled. A context that can never be cancelled binds to c
// itself (or, when c is itself bound, to an uncancellable copy).
func (c *Client) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil || ctx.Done() == nil {
		if c.ctx.Done() == nil {
			return c
		}
		ctx = context.Background()
	}
	return &Client{ctx: ctx, core: c.core}
}

// Err returns the first transport/protocol error the client swallowed
// via a non-panicking OnError (nil if none). Once Err is non-nil the
// client has returned at least one degraded zero value; results
// obtained since then must not be interpreted as board state.
func (c *Client) Err() error {
	c.core.errMu.Lock()
	defer c.core.errMu.Unlock()
	return c.core.firstErr
}

// Failures returns how many calls failed terminally (each one invoked
// OnError and returned a degraded zero value).
func (c *Client) Failures() int64 { return c.core.failures.Load() }

func (c *Client) fail(err error) {
	terr := &TransportError{Err: err}
	c.core.failures.Add(1)
	c.core.errMu.Lock()
	if c.core.firstErr == nil {
		c.core.firstErr = terr
	}
	c.core.errMu.Unlock()
	if onError := c.core.cfg.OnError; onError != nil {
		onError(terr)
		return
	}
	panic(terr)
}

// backoff waits before retry attempt i (1-based): i·RetryBackoff scaled
// by a uniform factor in [0.5, 1.5). Deterministic linear backoff
// synchronizes retry stampedes — every client that failed on the same
// server blip would sleep the same schedule and re-arrive together; the
// seeded jitter desynchronizes the herd while keeping the linear growth
// (and the i·RetryBackoff mean) intact. The wait selects on the
// client's context: a cancellation cuts it short, and backoff returns
// the cancellation cause so the retry loop stops instead of issuing
// doomed attempts.
func (c *Client) backoff(i int) error {
	core := c.core
	core.jitterMu.Lock()
	if core.jitter == nil {
		seed := core.cfg.JitterSeed
		for seed == 0 {
			seed = mrand.Uint64()
		}
		core.jitter = mrand.New(mrand.NewPCG(seed, 0x74656c6c6d65)) // "tellme"
	}
	f := 0.5 + core.jitter.Float64()
	core.jitterMu.Unlock()
	d := time.Duration(float64(i) * float64(core.cfg.RetryBackoff) * f)
	core.cfg.Telemetry.Counter(core.cfg.TelemetryPrefix + ".retries").Inc()
	ctx := c.ctx
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
	}
	if core.sleep != nil {
		core.sleep(d)
		return nil
	}
	if done == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return context.Cause(ctx)
	}
}

// requestID mints a fresh idempotency key: random client prefix plus a
// sequence number. One id is generated per logical mutation and reused
// across its retries.
func (c *Client) requestID() string {
	core := c.core
	core.idOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			core.idPrefix = hex.EncodeToString(b[:])
		} else {
			core.idPrefix = fmt.Sprintf("t%d", time.Now().UnixNano())
		}
	})
	return core.idPrefix + "-" + strconv.FormatUint(core.idSeq.Add(1), 10)
}

// instruments resolves the per-endpoint request counter and latency
// histogram for one logical call (nil instruments when telemetry is
// off). The registry lookup happens once per call, not per attempt.
func (c *Client) instruments(path string) (reqs *telemetry.Counter, lat *telemetry.Histogram) {
	reg := c.core.cfg.Telemetry
	if reg == nil {
		return nil, nil
	}
	prefix := c.core.cfg.TelemetryPrefix
	return reg.Counter(prefix + ".requests." + path),
		reg.Histogram(prefix+".latency_ns."+path, telemetry.LatencyBuckets())
}

// connStallThreshold separates "the pool handed over a connection" from
// "the request waited for one": a GetConn→GotConn gap above it counts as
// a stall — the pool was saturated (MaxConnsPerHost reached, or every
// idle connection taken) and the request queued or dialed.
const connStallThreshold = time.Millisecond

// traceContext is the client's context with connection accounting
// attached: "<prefix>.conns.dialed" counts fresh dials (pool misses),
// "<prefix>.conns.reused" counts pooled handoffs, and
// "<prefix>.conns.stalled" counts requests that waited longer than
// connStallThreshold for a connection — the pool-saturation signal a
// load run watches to size MaxIdleConnsPerHost. No telemetry, no trace.
func (c *Client) traceContext() context.Context {
	core := c.core
	reg := core.cfg.Telemetry
	if reg == nil {
		return c.ctx
	}
	core.connOnce.Do(func() {
		prefix := core.cfg.TelemetryPrefix
		core.connDialed = reg.Counter(prefix + ".conns.dialed")
		core.connReused = reg.Counter(prefix + ".conns.reused")
		core.connStalled = reg.Counter(prefix + ".conns.stalled")
	})
	var wait time.Time
	return httptrace.WithClientTrace(c.ctx, &httptrace.ClientTrace{
		GetConn: func(string) { wait = time.Now() },
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				core.connReused.Inc()
			} else {
				core.connDialed.Inc()
			}
			if !wait.IsZero() && time.Since(wait) > connStallThreshold {
				core.connStalled.Inc()
			}
		},
	})
}

// encodeBody returns msg encoded with codec in a slice of its own. It
// encodes into a pooled buffer and copies out the result: a transport
// may still read a request body after Do returns — writing it behind
// an early response, or replaying it through GetBody on another
// goroutine — so a body must never share a buffer the pool hands out
// again.
func encodeBody(codec wire.Codec, msg wire.Message, ins wire.Instruments) ([]byte, error) {
	bufp := wire.GetBuffer()
	defer wire.PutBuffer(bufp)
	start := time.Now()
	data, err := codec.Append((*bufp)[:0], msg)
	ins.EncodeNs.ObserveSince(start)
	if err != nil {
		return nil, err
	}
	*bufp = data[:0] // keep the grown capacity for reuse
	return bytes.Clone(data), nil
}

// decodeReply reads a 2xx reply body into a pooled buffer and decodes
// it into out with the codec its Content-Type names. Any binary-family
// media type decodes with the binary codec, which itself rejects frame
// versions it does not speak — a future v2 reply fails loudly, not
// quietly.
func decodeReply(resp *http.Response, out wire.Message, ins wire.Instruments) error {
	bufp := wire.GetBuffer()
	defer wire.PutBuffer(bufp)
	data, err := wire.ReadAll(*bufp, resp.Body)
	*bufp = data[:0] // keep the grown capacity for reuse
	if err != nil {
		return fmt.Errorf("read: %v", err)
	}
	ins.BytesIn.Add(int64(len(data)))
	codec := wire.JSON
	if wire.ClassifyContentType(resp.Header.Get("Content-Type")) != wire.KindJSON {
		codec = wire.Binary
	}
	start := time.Now()
	err = codec.Decode(data, out)
	ins.DecodeNs.ObserveSince(start)
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return nil
}

// post sends msg as an idempotent POST to path; see roundTrip.
func (c *Client) post(path string, msg wire.Message) { c.roundTrip(path, nil, msg, nil, "") }

// get fetches path?query into out and reports whether it succeeded; see
// roundTrip.
func (c *Client) get(path string, query url.Values, out wire.Message) bool {
	return c.roundTrip(path, query, nil, out, "")
}

// roundTrip is the client's one request path. A mutation (in != nil)
// is POSTed, its body encoded once with the configured codec (see
// encodeBody) and labelled with one request id that every retry
// reuses, so a retry of a post the server already applied is
// acknowledged, not re-applied. A read (in == nil) is a GET of
// path?query that advertises the configured codec via Accept and
// decodes the reply into out by its Content-Type.
//
// Transport errors, 5xx answers, failed body reads and failed decodes
// are retried with jittered backoff, up to Config.Retries times. A 4xx
// is a protocol error and is never retried, and a 2xx without the
// expected Tellme-Proto stamp is a terminal *ProtoError. Cancelling
// the client's context aborts the in-flight request and cuts the
// backoff short, naming the cause. roundTrip reports whether the
// request succeeded; on false the client has already failed (and, in
// degraded mode, out is untouched). A post to a topic (topic != "")
// that cancellation cut short is kept for DropTopic to settle.
func (c *Client) roundTrip(path string, query url.Values, in, out wire.Message, topic string) bool {
	core := c.core
	u := core.baseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	ins := wire.NewInstruments(core.cfg.Telemetry, core.cfg.TelemetryPrefix, path)
	var body []byte
	var id string
	if in != nil {
		var err error
		if body, err = encodeBody(core.codec, in, ins); err != nil {
			c.fail(err)
			return false
		}
		id = c.requestID()
	}
	err := c.send(path, u, body, id, ins, out)
	if err == nil {
		return true
	}
	if topic != "" && c.ctx.Err() != nil {
		core.keepPending(topic, pendingPost{path: path, body: body, id: id, at: time.Now()})
	}
	c.fail(err)
	return false
}

// keepPending records a cut-short post to topic for settle, first
// pruning every kept post older than DefaultDedupeMaxAge: the server
// has forgotten its request id, so the fence no longer holds for it,
// and a topic never dropped through this client (it moved to another
// shard, say) must not hold its posts forever.
func (core *clientCore) keepPending(topic string, p pendingPost) {
	core.pendMu.Lock()
	defer core.pendMu.Unlock()
	for name, posts := range core.pending {
		posts = slices.DeleteFunc(posts, func(q pendingPost) bool {
			return p.at.Sub(q.at) > DefaultDedupeMaxAge
		})
		if len(posts) == 0 {
			delete(core.pending, name)
		} else {
			core.pending[name] = posts
		}
	}
	core.pending[topic] = append(core.pending[topic], p)
}

// settle re-sends, under c's context and with their original request
// ids, the posts to topic that cancellation cut short. A cut-short
// request may still be applied by the server later, after the topic
// was dropped, where the next run reusing the topic's name would read
// it. The re-sent copy closes that window: the server's dedupe window
// acknowledges a post it already applied (or is applying) without
// applying it again, and applies one it never saw, so a late original
// is then a duplicate.
func (c *Client) settle(topic string) {
	core := c.core
	core.pendMu.Lock()
	posts := core.pending[topic]
	delete(core.pending, topic)
	core.pendMu.Unlock()
	for _, p := range posts {
		// A failed re-send is given up: the drop that follows goes to the
		// same server and reports the failure if the transport is down.
		ins := wire.NewInstruments(core.cfg.Telemetry, core.cfg.TelemetryPrefix, p.path)
		_ = c.send(p.path, core.baseURL+p.path, p.body, p.id, ins, nil)
	}
}

// send runs roundTrip's retry loop for one request to url u: a POST of
// body labelled with request id when body is non-nil, else a GET whose
// reply is decoded into out. It returns nil on success and the last
// attempt's failure otherwise.
func (c *Client) send(path, u string, body []byte, id string, ins wire.Instruments, out wire.Message) error {
	core := c.core
	codec := core.codec
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	reqs, lat := c.instruments(path)
	var lastErr error
	for attempt := 0; attempt <= core.cfg.Retries; attempt++ {
		if attempt > 0 {
			if cerr := c.backoff(attempt); cerr != nil {
				lastErr = fmt.Errorf("%s %s: canceled during retry backoff: %w (last attempt: %v)", method, path, cerr, lastErr)
				break
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(c.traceContext(), method, u, rd)
		if err != nil {
			return err
		}
		req.Header.Set(HeaderProto, ProtoVersion)
		if body != nil {
			req.Header.Set("Content-Type", codec.ContentType())
			req.Header.Set(HeaderRequestID, id)
			ins.BytesOut.Add(int64(len(body)))
		} else if codec == wire.Binary {
			req.Header.Set("Accept", wire.ContentTypeBinary)
		}
		reqs.Inc()
		start := time.Now()
		resp, err := core.cfg.HTTPClient.Do(req)
		lat.ObserveSince(start)
		if err != nil {
			lastErr = err
			continue
		}
		if code := resp.StatusCode; code/100 != 2 {
			text, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, text)
			if code/100 == 4 {
				break // protocol error; retrying cannot help
			}
			continue
		}
		if got := resp.Header.Get(HeaderProto); got != ProtoVersion {
			// Wrong or missing protocol stamp: this is not a tellme
			// billboard speaking our protocol version. Terminal — a
			// retry cannot change what the peer speaks.
			resp.Body.Close()
			lastErr = &ProtoError{Path: path, Got: got}
			break
		}
		if out != nil {
			err = decodeReply(resp, out, ins)
		}
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("%s %s: %v", method, path, err)
			continue
		}
		return nil
	}
	return lastErr
}

// PostProbe implements billboard.Interface: a one-element PostProbes.
func (c *Client) PostProbe(p, o int, val byte) { c.PostProbes(p, []int{o}, []byte{val}) }

// PostProbes implements billboard.Interface: the whole batch travels as
// one idempotent request. Grades must be 0 or 1; the server rejects any
// other value with 400.
func (c *Client) PostProbes(p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	gw := make([]byte, len(objs))
	for k, g := range grades {
		gw[k] = '0' + g // '0'/'1'; any other grade lands outside the alphabet
	}
	c.post(PathBatchProbes, &batchProbesPost{Player: p, Objects: objs, Grades: string(gw)})
}

// LookupProbe implements billboard.Interface: a one-element
// LookupProbes.
func (c *Client) LookupProbe(p, o int) (byte, bool) {
	var grade [1]byte
	var known [1]bool
	c.LookupProbes(p, []int{o}, grade[:], known[:])
	return grade[0], known[0]
}

// LookupProbes implements billboard.Interface: one request for the
// whole batch. In degraded mode every answer is (0, false).
func (c *Client) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	if len(objs) == 0 {
		return
	}
	var sb strings.Builder
	for k, o := range objs {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(o))
	}
	var reply batchLookupsReply
	ok := c.get(PathBatchLookups, url.Values{
		"player":  {strconv.Itoa(p)},
		"objects": {sb.String()},
	}, &reply)
	if ok && len(reply.Grades) != len(objs) {
		c.fail(fmt.Errorf("batch lookup: %d grades for %d objects", len(reply.Grades), len(objs)))
		ok = false
	}
	for k := range objs {
		switch {
		case !ok:
			grades[k], known[k] = 0, false // degraded: nothing known
		case reply.Grades[k] == '1':
			grades[k], known[k] = 1, true
		case reply.Grades[k] == '0':
			grades[k], known[k] = 0, true
		default:
			grades[k], known[k] = 0, false
		}
	}
}

// ProbedObjects implements billboard.Interface.
func (c *Client) ProbedObjects(p int) map[int]byte {
	pairs := c.probedPairs(p)
	out := make(map[int]byte, len(pairs))
	for _, og := range pairs {
		out[og.Object] = og.Grade
	}
	return out
}

// probedPairs fetches p's probe results as ordered (object, grade)
// pairs — the server's order, ascending by object for a Board-backed
// server. The Cluster merges these per-shard lists.
func (c *Client) probedPairs(p int) []objGrade {
	var reply probedObjectsReply
	c.get(PathProbedObjects, url.Values{"player": {strconv.Itoa(p)}}, &reply)
	return reply.Objects
}

// ForEachProbe implements billboard.Interface. It fetches the player's
// probe results once and iterates them in the server's order (ascending
// object order for a billboard.Board-backed server).
func (c *Client) ForEachProbe(p int, fn func(o int, grade byte)) {
	for _, og := range c.probedPairs(p) {
		fn(og.Object, og.Grade)
	}
}

// ProbeCount implements billboard.Interface.
func (c *Client) ProbeCount() int64 { return c.stats().ProbeCount }

// Post implements billboard.Interface.
func (c *Client) Post(name string, player int, v bitvec.Partial) {
	c.roundTrip(PathVector, nil, &vectorPost{Topic: name, Player: player, Bits: wire.Bits{P: v}}, nil, name)
}

// PostVector implements billboard.Interface.
func (c *Client) PostVector(name string, player int, v bitvec.Vector) {
	c.Post(name, player, bitvec.PartialOf(v))
}

// Postings implements billboard.Interface.
func (c *Client) Postings(name string) []billboard.Posting {
	var reply postingList
	c.get(PathPostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.Posting, len(reply))
	for i, p := range reply {
		out[i] = billboard.Posting{Player: p.Player, Vec: p.Bits.P}
	}
	return out
}

// snapshot returns the topic's tallies through the epoch-tagged
// snapshot cache: one GET when the cached (gen, epoch) stamp is stale,
// zero decode work when the server answers "unchanged". The returned
// entry is shared and immutable, matching the billboard.Interface
// contract for Votes/ValueVotes. Returns nil in degraded mode.
func (c *Client) snapshot(name string) *topicCacheEntry {
	core := c.core
	core.cacheMu.Lock()
	if core.cache == nil {
		core.cache = make(map[string]*topicCacheEntry)
	}
	cached := core.cache[name]
	core.cacheMu.Unlock()

	q := url.Values{"topic": {name}}
	if cached != nil {
		q.Set("gen", strconv.FormatUint(cached.gen, 10))
		q.Set("epoch", strconv.FormatUint(cached.epoch, 10))
	}
	var reply topicSnapshotReply
	if !c.get(PathTopicSnapshot, q, &reply) {
		return nil // degraded; c.fail already fired
	}
	if reply.Unchanged && cached != nil {
		return cached
	}
	entry := &topicCacheEntry{gen: reply.Gen, epoch: reply.Epoch}
	entry.votes, entry.valVotes = reply.tallies()
	core.cacheMu.Lock()
	// Last writer wins; concurrent fetchers decoded the same stamp or a
	// newer one, and a stale overwrite only costs one extra refetch.
	core.cache[name] = entry
	core.cacheMu.Unlock()
	return entry
}

// forget evicts a dropped topic from the snapshot cache.
func (c *Client) forget(name string) {
	c.core.cacheMu.Lock()
	delete(c.core.cache, name)
	c.core.cacheMu.Unlock()
}

// Votes implements billboard.Interface. The result is the shared,
// immutable snapshot-cache entry (same contract as the in-memory
// board's epoch-cached tallies).
func (c *Client) Votes(name string) []billboard.Vote {
	if entry := c.snapshot(name); entry != nil {
		return entry.votes
	}
	return nil
}

// PopularVectors implements billboard.Interface.
func (c *Client) PopularVectors(name string, minVotes int) []bitvec.Partial {
	var out []bitvec.Partial
	for _, v := range c.Votes(name) {
		if v.Count >= minVotes {
			out = append(out, v.Vec)
		}
	}
	return out
}

// PostValues implements billboard.Interface.
func (c *Client) PostValues(name string, player int, vals []uint32) {
	c.roundTrip(PathValues, nil, &valuesPost{Topic: name, Player: player, Vals: vals}, nil, name)
}

// ValuePostings implements billboard.Interface.
func (c *Client) ValuePostings(name string) []billboard.ValuePosting {
	var reply valuePostingList
	c.get(PathValuePostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.ValuePosting, len(reply))
	for i, p := range reply {
		out[i] = billboard.ValuePosting{Player: p.Player, Vals: p.Vals}
	}
	return out
}

// ValueVotes implements billboard.Interface. Like Votes, the result is
// the shared immutable snapshot-cache entry.
func (c *Client) ValueVotes(name string) []billboard.ValueVote {
	if entry := c.snapshot(name); entry != nil {
		return entry.valVotes
	}
	return nil
}

// DropTopic implements billboard.Interface. It first settles the
// topic's cut-short posts, so none of them can land after the drop.
func (c *Client) DropTopic(name string) {
	c.settle(name)
	c.post(PathDropTopic, &dropPost{Topic: name})
	c.forget(name)
}

// TopicCount implements billboard.Interface.
func (c *Client) TopicCount() int { return c.stats().TopicCount }

// VectorPostCount implements billboard.Interface.
func (c *Client) VectorPostCount() int64 { return c.stats().VectorPostCount }

func (c *Client) stats() statsReply {
	var reply statsReply
	c.get(PathStats, nil, &reply)
	return reply
}

// TopicSnapshot implements boardclient.Interface: the raw epoch-tagged
// tally read behind the batched protocol, bypassing the client's own
// snapshot cache (the caller manages its stamps — this is what a
// Cluster drain replays from, and what a caller layering its own cache
// uses). Votes/ValueVotes go through the cache instead.
func (c *Client) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	q := url.Values{
		"topic": {name},
		"gen":   {strconv.FormatUint(sinceGen, 10)},
		"epoch": {strconv.FormatUint(sinceEpoch, 10)},
	}
	var reply topicSnapshotReply
	if !c.get(PathTopicSnapshot, q, &reply) {
		return 0, 0, false, nil, nil // degraded; c.fail already fired
	}
	if reply.Unchanged {
		return reply.Gen, reply.Epoch, true, nil, nil
	}
	votes, valVotes = reply.tallies()
	return reply.Gen, reply.Epoch, false, votes, valVotes
}

// Topics returns the names of all live topics on the server, sorted.
// It is the drain-path enumeration (mirrors billboard.Board.Topics) and
// is not part of boardclient.Interface.
func (c *Client) Topics() []string {
	var reply topicsReply
	c.get(PathTopics, nil, &reply)
	return reply.Topics
}

// ClearProbes removes player p's probe results for objs on the server
// (mirrors billboard.Board.ClearProbes; see there for the quiescence
// requirement). It is the second half of the cluster probe-migration
// step and is not part of boardclient.Interface.
func (c *Client) ClearProbes(p int, objs []int) {
	if len(objs) == 0 {
		return
	}
	c.post(PathClearProbes, &clearProbesPost{Player: p, Objects: objs})
}

// Quiesce blocks until every mutation the server has started applying
// has finished — the drain-path barrier before snapshotting a donor.
// Not part of boardclient.Interface.
func (c *Client) Quiesce() {
	var reply quiesceReply
	c.get(PathQuiesce, nil, &reply)
}

// dropTopicIf asks the server to drop the topic only if its posting
// counts still match (nVec vector postings, nVal value postings). The
// outcome is not reported — a deduplicated retry could not reproduce it
// — so callers verify by re-reading the topic.
func (c *Client) dropTopicIf(name string, nVec, nVal int) {
	c.post(PathDropTopicIf, &dropIfPost{Topic: name, Vectors: nVec, Values: nVal})
	c.forget(name)
}
