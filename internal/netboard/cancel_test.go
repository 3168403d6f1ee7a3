package netboard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
)

// TestBackoffSkippedWhenContextCancelled is the regression test for the
// unconditional backoff sleep: once the context is cancelled, the retry
// loop must stop before the next wait, observed through the sleep stub
// (zero stub calls after cancellation) rather than wall-clock timing.
func TestBackoffSkippedWhenContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel() // the first (and only) attempt kills the run
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	var got error
	c := NewClientWithConfig(srv.URL, Config{
		Retries:      5,
		RetryBackoff: time.Hour, // a single un-cut wait would hang the test
		OnError:      func(err error) { got = err },
	})
	var slept int
	c.core.sleep = func(time.Duration) { slept++ }

	b := c.BindContext(ctx)
	b.PostProbe(0, 0, 1)

	if slept != 0 {
		t.Fatalf("backoff slept %d times after cancellation, want 0", slept)
	}
	if got == nil || !errors.Is(got, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", got)
	}
	var terr *TransportError
	if !errors.As(got, &terr) {
		t.Fatalf("error %v is not a *TransportError", got)
	}
}

// TestBackoffRealTimerCutShort covers the non-stubbed path: a cancelled
// context interrupts an in-progress timer wait, so a client configured
// with a long backoff against a dead server returns promptly.
func TestBackoffRealTimerCutShort(t *testing.T) {
	var got error
	c := NewClientWithConfig("http://127.0.0.1:1", Config{ // nothing listening
		Retries:      3,
		RetryBackoff: 5 * time.Second,
		OnError:      func(err error) { got = err },
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	b := c.BindContext(ctx)
	start := time.Now()
	b.PostProbe(0, 0, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled retry loop took %v, want well under the 5s backoff unit", elapsed)
	}
	if got == nil || !errors.Is(got, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", got)
	}
}

// TestBindContextSharesState checks the bound view is the same logical
// client: posts through the bound view are visible through the plain
// one, and a nil-Done context binds to the client itself.
func TestBindContextSharesState(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	c := NewClientWithConfig(srv.URL, Config{OnError: func(error) {}})

	if got := c.BindContext(context.Background()); got != boardclient.Interface(c) {
		t.Fatal("Background context should bind to the client itself")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := c.BindContext(ctx)
	b.PostProbe(1, 2, 1)
	if v, ok := c.LookupProbe(1, 2); !ok || v != 1 {
		t.Fatalf("post through bound view not visible: (%d,%v)", v, ok)
	}
	if got := boardclient.BindContext(ctx, c); got == boardclient.Interface(c) {
		t.Fatal("BindContext helper did not bind a cancellable context")
	}

	// The snapshot cache is shared: a tally fetched through the bound
	// copy is the very entry the original serves while the topic is
	// unchanged.
	c.PostValues("t", 0, []uint32{1})
	c.PostValues("t", 1, []uint32{1})
	bv, cv := b.ValueVotes("t"), c.ValueVotes("t")
	if len(bv) != 1 || len(cv) != 1 || &bv[0] != &cv[0] {
		t.Fatalf("bound copy and original do not share the snapshot cache: %p vs %p", bv, cv)
	}

	// So is the degraded-mode record: a failure through either one shows
	// through both.
	b.Postings("") // rejected: empty topic
	if c.Err() == nil || c.Failures() != 1 {
		t.Fatalf("failure through the bound copy not recorded on the original: err=%v failures=%d", c.Err(), c.Failures())
	}
	c.Postings("")
	if b.Err() != c.Err() || b.Failures() != 2 {
		t.Fatalf("failure through the original not recorded on the bound copy: err=%v failures=%d", b.Err(), b.Failures())
	}
}

// boardCall is one call of a board method that issues a request.
type boardCall struct {
	name string
	call func(b boardclient.Interface)
}

// requestingCalls lists a call of every boardclient.Interface method
// that talks to a server (Err and Failures only read local state),
// plus the admin methods Client and Cluster share.
func requestingCalls() []boardCall {
	vec := bitvec.New(4)
	return []boardCall{
		{"PostProbe", func(b boardclient.Interface) { b.PostProbe(0, 1, 1) }},
		{"PostProbes", func(b boardclient.Interface) { b.PostProbes(0, []int{1, 2, 3}, []byte{1, 0, 1}) }},
		{"LookupProbe", func(b boardclient.Interface) { b.LookupProbe(0, 1) }},
		{"LookupProbes", func(b boardclient.Interface) {
			b.LookupProbes(0, []int{1, 2, 3}, make([]byte, 3), make([]bool, 3))
		}},
		{"ProbedObjects", func(b boardclient.Interface) { b.ProbedObjects(0) }},
		{"ForEachProbe", func(b boardclient.Interface) { b.ForEachProbe(0, func(int, byte) {}) }},
		{"ProbeCount", func(b boardclient.Interface) { b.ProbeCount() }},
		{"Post", func(b boardclient.Interface) { b.Post("t", 0, bitvec.PartialOf(vec)) }},
		{"PostVector", func(b boardclient.Interface) { b.PostVector("t", 0, vec) }},
		{"Postings", func(b boardclient.Interface) { b.Postings("t") }},
		{"Votes", func(b boardclient.Interface) { b.Votes("t") }},
		{"PopularVectors", func(b boardclient.Interface) { b.PopularVectors("t", 1) }},
		{"PostValues", func(b boardclient.Interface) { b.PostValues("t", 0, []uint32{1}) }},
		{"ValuePostings", func(b boardclient.Interface) { b.ValuePostings("t") }},
		{"ValueVotes", func(b boardclient.Interface) { b.ValueVotes("t") }},
		{"DropTopic", func(b boardclient.Interface) { b.DropTopic("t") }},
		{"TopicCount", func(b boardclient.Interface) { b.TopicCount() }},
		{"VectorPostCount", func(b boardclient.Interface) { b.VectorPostCount() }},
		{"TopicSnapshot", func(b boardclient.Interface) { b.TopicSnapshot("t", 0, 0) }},
		{"ClearProbes", func(b boardclient.Interface) {
			b.(interface{ ClearProbes(int, []int) }).ClearProbes(0, []int{1, 2, 3})
		}},
		{"Quiesce", func(b boardclient.Interface) { b.(interface{ Quiesce() }).Quiesce() }},
	}
}

// TestBoundViewCancelsEveryMethod runs every requesting method on a
// bound Client and a bound Cluster against servers that never answer:
// once the bound context is cancelled, each call must return promptly
// with a *TransportError wrapping context.Canceled. A method left on
// the background context would block until the test ends.
func TestBoundViewCancelsEveryMethod(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	block := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	var urls []string
	for range 2 {
		srv := httptest.NewServer(block)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	t.Cleanup(func() { close(release) }) // runs before the servers close

	var mu sync.Mutex
	var errs []error
	onError := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	c := NewClientWithConfig(urls[0], Config{OnError: onError})
	cl, err := NewCluster(ClusterConfig{Shards: urls, Client: Config{OnError: onError}})
	if err != nil {
		t.Fatal(err)
	}

	clientCalls := append(requestingCalls(), boardCall{"Topics", func(b boardclient.Interface) { b.(*Client).Topics() }})
	for _, tc := range []struct {
		name  string
		board boardclient.ContextBinder
		calls []boardCall
	}{
		{"Client", c, clientCalls},
		{"Cluster", cl, requestingCalls()},
	} {
		for _, call := range tc.calls {
			mu.Lock()
			errs = nil
			mu.Unlock()
			for len(arrived) > 0 {
				<-arrived
			}
			ctx, cancel := context.WithCancel(context.Background())
			b := tc.board.BindContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				call.call(b)
			}()
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s.%s: no request reached the server", tc.name, call.name)
			}
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s.%s: did not return after cancel (runs on the background context?)", tc.name, call.name)
			}
			mu.Lock()
			got := errs
			mu.Unlock()
			if len(got) == 0 {
				t.Errorf("%s.%s: returned without reporting a failure", tc.name, call.name)
			}
			for _, err := range got {
				var terr *TransportError
				if !errors.As(err, &terr) || !errors.Is(err, context.Canceled) {
					t.Errorf("%s.%s: error %v, want a *TransportError wrapping context.Canceled", tc.name, call.name, err)
				}
			}
		}
	}
}

// TestDropTopicSettlesCancelledPosts pins the late-commit fence: a topic
// post whose context is cancelled while the server holds the request
// can still be applied after the client gave up on it. DropTopic must
// re-send it (same request id) before dropping, so the held original
// is then a dedupe hit and cannot bring the dropped topic back.
func TestDropTopicSettlesCancelledPosts(t *testing.T) {
	board := billboard.New(4, 4)
	h := NewServer(board)
	var once sync.Once
	held, release, applied := make(chan struct{}), make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hold := false
		if r.URL.Path == PathValues {
			once.Do(func() { hold = true })
		}
		if !hold {
			h.ServeHTTP(w, r)
			return
		}
		// The server has the whole request; it applies it only after
		// the client has given up and dropped the topic.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		close(held)
		<-release
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		close(applied)
	}))
	defer srv.Close()

	c := NewClientWithConfig(srv.URL, Config{OnError: func(error) {}})
	ctx, cancel := context.WithCancel(context.Background())
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		c.BindContext(ctx).PostValues("t", 0, []uint32{1})
	}()
	<-held
	cancel()
	<-posted

	c.DropTopic("t")
	close(release)
	<-applied
	if n := board.TopicCount(); n != 0 {
		t.Fatalf("%d topics on the board: the cancelled post landed after the drop", n)
	}
}

// TestPendingPostsExpireWithDedupeWindow: a cut-short post older than
// the server's dedupe age is pruned when the next one is kept, so the
// posts of a topic never dropped through this client do not pile up,
// and settle does not re-send a post the server would apply anew.
func TestPendingPostsExpireWithDedupeWindow(t *testing.T) {
	c := NewClient("http://127.0.0.1:0")
	now := time.Now()
	c.core.keepPending("old", pendingPost{id: "a", at: now.Add(-DefaultDedupeMaxAge - time.Second)})
	c.core.keepPending("kept", pendingPost{id: "b", at: now.Add(-time.Second)})
	c.core.keepPending("new", pendingPost{id: "c", at: now})
	if _, ok := c.core.pending["old"]; ok {
		t.Fatal("a post past the dedupe age was kept")
	}
	if len(c.core.pending["kept"]) != 1 || len(c.core.pending["new"]) != 1 {
		t.Fatalf("pending = %v, want the two fresh posts", c.core.pending)
	}
}
