package main

import (
	"context"
	"sync/atomic"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
)

const headerRequestID = netboard.HeaderRequestID

// tracedCluster is the netboard.cluster wrapper: a boardclient.Interface
// decorator around a *netboard.Cluster that opens one span per call and
// binds the call's context, carrying the span id, onto the cluster so
// the RoundTripper can link the fan-out requests to it. It forwards
// every optional interface the Cluster implements (ContextBinder,
// Quiesce, ClearProbes) and no other, so callers take the same paths
// as against the bare cluster.
type tracedCluster struct {
	cl   *netboard.Cluster
	tr   *tracer
	ctx  context.Context // must be cancellable: Cluster.BindContext ignores a ctx without Done
	busy *atomic.Int64   // ns spent inside cluster calls, summed over callers
}

func newTracedCluster(ctx context.Context, cl *netboard.Cluster, tr *tracer) *tracedCluster {
	return &tracedCluster{cl: cl, tr: tr, ctx: ctx, busy: new(atomic.Int64)}
}

var (
	_ boardclient.Interface     = (*tracedCluster)(nil)
	_ boardclient.ContextBinder = (*tracedCluster)(nil)
)

func (d *tracedCluster) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil || ctx.Done() == nil {
		return d
	}
	return &tracedCluster{cl: d.cl, tr: d.tr, ctx: ctx, busy: d.busy}
}

func (d *tracedCluster) do(name string, fn func(b boardclient.Interface)) {
	id, start := d.tr.newID(), d.tr.now()
	fn(d.cl.BindContext(withSpan(d.ctx, id)))
	d.tr.end(id, parentOf(d.ctx), "netboard.cluster."+name, start)
	d.busy.Add(d.tr.now() - start)
}

func (d *tracedCluster) PostProbe(p, o int, val byte) {
	d.do("post", func(b boardclient.Interface) { b.PostProbe(p, o, val) })
}
func (d *tracedCluster) LookupProbe(p, o int) (g byte, ok bool) {
	d.do("lookup", func(b boardclient.Interface) { g, ok = b.LookupProbe(p, o) })
	return
}
func (d *tracedCluster) ProbedObjects(p int) (m map[int]byte) {
	d.do("probed_objects", func(b boardclient.Interface) { m = b.ProbedObjects(p) })
	return
}
func (d *tracedCluster) ForEachProbe(p int, fn func(o int, grade byte)) {
	d.do("for_each_probe", func(b boardclient.Interface) { b.ForEachProbe(p, fn) })
}
func (d *tracedCluster) PostProbes(p int, objs []int, grades []byte) {
	d.do("post", func(b boardclient.Interface) { b.PostProbes(p, objs, grades) })
}
func (d *tracedCluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	d.do("lookup", func(b boardclient.Interface) { b.LookupProbes(p, objs, grades, known) })
}
func (d *tracedCluster) ProbeCount() (n int64) {
	d.do("stats", func(b boardclient.Interface) { n = b.ProbeCount() })
	return
}
func (d *tracedCluster) Post(name string, player int, v bitvec.Partial) {
	d.do("topic_post", func(b boardclient.Interface) { b.Post(name, player, v) })
}
func (d *tracedCluster) PostVector(name string, player int, v bitvec.Vector) {
	d.do("topic_post", func(b boardclient.Interface) { b.PostVector(name, player, v) })
}
func (d *tracedCluster) Postings(name string) (out []billboard.Posting) {
	d.do("topic_read", func(b boardclient.Interface) { out = b.Postings(name) })
	return
}
func (d *tracedCluster) Votes(name string) (out []billboard.Vote) {
	d.do("topic_read", func(b boardclient.Interface) { out = b.Votes(name) })
	return
}
func (d *tracedCluster) PopularVectors(name string, minVotes int) (out []bitvec.Partial) {
	d.do("topic_read", func(b boardclient.Interface) { out = b.PopularVectors(name, minVotes) })
	return
}
func (d *tracedCluster) PostValues(name string, player int, vals []uint32) {
	d.do("topic_post", func(b boardclient.Interface) { b.PostValues(name, player, vals) })
}
func (d *tracedCluster) ValuePostings(name string) (out []billboard.ValuePosting) {
	d.do("topic_read", func(b boardclient.Interface) { out = b.ValuePostings(name) })
	return
}
func (d *tracedCluster) ValueVotes(name string) (out []billboard.ValueVote) {
	d.do("topic_read", func(b boardclient.Interface) { out = b.ValueVotes(name) })
	return
}
func (d *tracedCluster) DropTopic(name string) {
	d.do("drop_topic", func(b boardclient.Interface) { b.DropTopic(name) })
}
func (d *tracedCluster) TopicCount() (n int) {
	d.do("stats", func(b boardclient.Interface) { n = b.TopicCount() })
	return
}
func (d *tracedCluster) VectorPostCount() (n int64) {
	d.do("stats", func(b boardclient.Interface) { n = b.VectorPostCount() })
	return
}
func (d *tracedCluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	d.do("topic_snapshot", func(b boardclient.Interface) {
		gen, epoch, unchanged, votes, valVotes = b.TopicSnapshot(name, sinceGen, sinceEpoch)
	})
	return
}
func (d *tracedCluster) Err() error      { return d.cl.Err() }
func (d *tracedCluster) Failures() int64 { return d.cl.Failures() }

// Quiesce and ClearProbes are Cluster methods outside boardclient.Interface.
func (d *tracedCluster) Quiesce() { d.cl.Quiesce() }
func (d *tracedCluster) ClearProbes(p int, objs []int) {
	d.do("clear_probes", func(boardclient.Interface) { d.cl.ClearProbes(p, objs) })
}

// clock accumulates calls and busy time for one class of board call.
// Probe calls, tens of millions per reconstruction, are too many to
// keep as spans; they are striped by player so the two player workers
// do not contend on one cache line.
type clock struct {
	stripes [16]struct {
		calls, ns atomic.Int64
		_         [48]byte
	}
}

func (c *clock) since(stripe int, t time.Time) {
	s := &c.stripes[stripe&15]
	s.calls.Add(1)
	s.ns.Add(int64(time.Since(t)))
}

func (c *clock) totals() (calls, ns int64) {
	for i := range c.stripes {
		calls += c.stripes[i].calls.Load()
		ns += c.stripes[i].ns.Load()
	}
	return calls, ns
}

// tracedBoard is the billboard wrapper: a decorator around the
// in-memory *billboard.Board handed to tellme.Run and serve.New that
// counts every call and its busy time, split into writes and reads. It
// forwards every optional fast path the Board implements (TopicRef,
// PostValuesRef, PostValuesBatchRef, HintPosts, ProbeTally,
// ClearProbes) and none it does not (the Board is no ContextBinder),
// so core and serve take the same paths as against the bare board.
type tracedBoard struct {
	b            *billboard.Board
	posts, reads clock
}

var _ boardclient.Interface = (*tracedBoard)(nil)

func (d *tracedBoard) PostProbe(p, o int, val byte) {
	t := time.Now()
	d.b.PostProbe(p, o, val)
	d.posts.since(p, t)
}
func (d *tracedBoard) LookupProbe(p, o int) (byte, bool) {
	t := time.Now()
	defer d.reads.since(p, t)
	return d.b.LookupProbe(p, o)
}
func (d *tracedBoard) ProbedObjects(p int) map[int]byte {
	t := time.Now()
	defer d.reads.since(p, t)
	return d.b.ProbedObjects(p)
}
func (d *tracedBoard) ForEachProbe(p int, fn func(o int, grade byte)) {
	t := time.Now()
	d.b.ForEachProbe(p, fn)
	d.reads.since(p, t)
}
func (d *tracedBoard) PostProbes(p int, objs []int, grades []byte) {
	t := time.Now()
	d.b.PostProbes(p, objs, grades)
	d.posts.since(p, t)
}
func (d *tracedBoard) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	t := time.Now()
	d.b.LookupProbes(p, objs, grades, known)
	d.reads.since(p, t)
}
func (d *tracedBoard) ProbeCount() int64 {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.ProbeCount()
}
func (d *tracedBoard) Post(name string, player int, v bitvec.Partial) {
	t := time.Now()
	d.b.Post(name, player, v)
	d.posts.since(player, t)
}
func (d *tracedBoard) PostVector(name string, player int, v bitvec.Vector) {
	t := time.Now()
	d.b.PostVector(name, player, v)
	d.posts.since(player, t)
}
func (d *tracedBoard) Postings(name string) []billboard.Posting {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.Postings(name)
}
func (d *tracedBoard) Votes(name string) []billboard.Vote {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.Votes(name)
}
func (d *tracedBoard) PopularVectors(name string, minVotes int) []bitvec.Partial {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.PopularVectors(name, minVotes)
}
func (d *tracedBoard) PostValues(name string, player int, vals []uint32) {
	t := time.Now()
	d.b.PostValues(name, player, vals)
	d.posts.since(player, t)
}
func (d *tracedBoard) ValuePostings(name string) []billboard.ValuePosting {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.ValuePostings(name)
}
func (d *tracedBoard) ValueVotes(name string) []billboard.ValueVote {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.ValueVotes(name)
}
func (d *tracedBoard) DropTopic(name string) {
	t := time.Now()
	d.b.DropTopic(name)
	d.posts.since(0, t)
}
func (d *tracedBoard) TopicCount() int {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.TopicCount()
}
func (d *tracedBoard) VectorPostCount() int64 {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.VectorPostCount()
}
func (d *tracedBoard) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.TopicSnapshot(name, sinceGen, sinceEpoch)
}
func (d *tracedBoard) Err() error      { return d.b.Err() }
func (d *tracedBoard) Failures() int64 { return d.b.Failures() }

// The Board's optional fast paths.

func (d *tracedBoard) TopicRef(name string) billboard.TopicRef {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.TopicRef(name)
}
func (d *tracedBoard) PostValuesRef(r billboard.TopicRef, player int, vals []uint32) {
	t := time.Now()
	d.b.PostValuesRef(r, player, vals)
	d.posts.since(player, t)
}
func (d *tracedBoard) PostValuesBatchRef(r billboard.TopicRef, players []int, rows [][]uint32) {
	t := time.Now()
	d.b.PostValuesBatchRef(r, players, rows)
	d.posts.since(0, t)
}
func (d *tracedBoard) HintPosts(name string, vectors, values int) {
	t := time.Now()
	d.b.HintPosts(name, vectors, values)
	d.posts.since(0, t)
}
func (d *tracedBoard) ProbeTally(ones, total []int) ([]int, []int) {
	t := time.Now()
	defer d.reads.since(0, t)
	return d.b.ProbeTally(ones, total)
}
func (d *tracedBoard) ClearProbes(p int, objs []int) {
	t := time.Now()
	d.b.ClearProbes(p, objs)
	d.posts.since(p, t)
}
