package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans at each layer boundary it can reach
// from outside the program: around the calls the generator makes into
// netboard.Cluster, around every HTTP request a netboard client sends
// (an http.RoundTripper), around each shard server's and the serving
// daemon's http.Handler, and, as counts and busy time, around every
// call into an in-memory billboard. Spans of one round or request are
// linked by parent ids: a round's cluster calls carry its id in their
// context, the RoundTripper reads it from req.Context(), and the
// server wrapper reads the client span's id from the headerSpan
// header.

// headerSpan carries the client request span's id to the server-side
// wrappers. Servers ignore unknown headers, so only traced runs send it.
const headerSpan = "Bench-Span"

// span is one timed call at a layer boundary. Start and End are ns
// since the tracer was created; Parent is 0 for a root.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
}

// maxSpans caps the spans a run keeps (about 40 MB in memory, 60 MB
// written out). A remote reconstruction sends over 100,000 requests,
// each a client and a server span, so a long traced run would otherwise
// hold most of a gigabyte. Spans past the cap are dropped; the metrics
// that come from spans then describe the part of the window before the
// cap was hit (see window), and counts come from counters instead.
const maxSpans = 1_000_000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	from  int64 // when the measured window started (ns since t0)
	full  int64 // when the cap was hit (ns since t0), 0 if it was not
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.t0)) }
func (t *tracer) newID() uint64 { return t.next.Add(1) }

// end records the span id, opened at start under parent.
func (t *tracer) end(id, parent uint64, name string, start int64) {
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else if t.full == 0 {
		t.full = s.End
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// reset drops the spans recorded so far (set-up traffic) and starts
// the measured window.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.from, t.full = nil, t.now(), 0
	t.mu.Unlock()
}

// window shortens a measured window of length d to the part of it
// whose spans were kept.
func (t *tracer) window(d time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full != 0 {
		return min(d, time.Duration(t.full-t.from))
	}
	return d
}

// write stores the spans, one per line: id, parent id (0 for a root),
// start and end in ns since the tracer started, and name.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d %d %d %d %s\n", s.ID, s.Parent, s.Start, s.End, s.Name)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan returns ctx carrying id as the parent of spans opened under it.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// tracingTransport is the netboard.client wrapper: an http.RoundTripper
// handed to the clients through netboard.Config.HTTPClient. A span runs
// from the send to the response headers.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu  sync.Mutex
	ids map[string]struct{} // Tellme-Request-Id values seen, to count retries

	requests, retries, dialed, reused, bytes atomic.Int64
}

func newTracingTransport(base http.RoundTripper, tr *tracer) *tracingTransport {
	return &tracingTransport{base: base, tr: tr, ids: make(map[string]struct{})}
}

// reset zeroes the counters (set-up traffic); request ids already seen
// stay, so a retry of a set-up request still counts.
func (t *tracingTransport) reset() {
	t.requests.Store(0)
	t.retries.Store(0)
	t.dialed.Store(0)
	t.reused.Store(0)
	t.bytes.Store(0)
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := t.tr.newID(), t.tr.now()
	t.requests.Add(1)
	if rid := req.Header.Get(headerRequestID); rid != "" {
		t.mu.Lock()
		if _, seen := t.ids[rid]; seen {
			t.retries.Add(1)
		}
		t.ids[rid] = struct{}{}
		t.mu.Unlock()
	}
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				t.reused.Add(1)
			} else {
				t.dialed.Add(1)
			}
		},
	})
	out := req.Clone(ctx)
	out.Header.Set(headerSpan, strconv.FormatUint(id, 10))
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(out)
	t.tr.end(id, parentOf(req.Context()), "netboard.client.request", start)
	if resp != nil {
		if resp.ContentLength >= 0 {
			t.bytes.Add(resp.ContentLength)
		} else {
			resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
		}
	}
	return resp, err
}

// countingBody counts the bytes read from a response of unknown length.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// traceHandler is the server-side wrapper: one span per request, named
// by name(r), linked to the client span that sent it.
func traceHandler(tr *tracer, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start := tr.newID(), tr.now()
		parent, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		h.ServeHTTP(w, r)
		tr.end(id, parent, name(r), start)
	})
}

// spanIndex groups spans by name and by parent for the per-layer
// reductions.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: make(map[string][]span), children: make(map[uint64][]span)}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations (ns) of every span whose name is in names.
func (ix spanIndex) durations(names ...string) []int64 {
	var out []int64
	for _, n := range names {
		for _, s := range ix.byName[n] {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, for every span whose name is in names, its
// duration minus the part of it that its children cover.
func (ix spanIndex) selfTimes(names ...string) []int64 {
	var out []int64
	for _, n := range names {
		for _, s := range ix.byName[n] {
			out = append(out, s.End-s.Start-covered(ix.children[s.ID], s.Start, s.End))
		}
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
