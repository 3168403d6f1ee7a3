package billboard

import (
	"fmt"
	"sync"
	"testing"

	"tellme/internal/bitvec"
	"tellme/internal/rng"
)

func mustVec(t *testing.T, s string) bitvec.Vector {
	t.Helper()
	v, err := bitvec.FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestProbePostLookup(t *testing.T) {
	b := New(3, 10)
	if _, ok := b.LookupProbe(0, 5); ok {
		t.Fatal("lookup on empty board succeeded")
	}
	b.PostProbe(0, 5, 1)
	v, ok := b.LookupProbe(0, 5)
	if !ok || v != 1 {
		t.Fatalf("lookup = %v,%v", v, ok)
	}
	if _, ok := b.LookupProbe(1, 5); ok {
		t.Fatal("probe leaked across players")
	}
	if b.ProbeCount() != 1 {
		t.Fatalf("ProbeCount = %d", b.ProbeCount())
	}
	// duplicate post should not double-count
	b.PostProbe(0, 5, 1)
	if b.ProbeCount() != 1 {
		t.Fatalf("duplicate probe counted: %d", b.ProbeCount())
	}
}

// TestProbePlanesIsolatePlayers posts and then clears every object of
// player p on boards whose m is not a multiple of 64 (the last plane
// word is partial) and checks players p-1 and p+1, whose planes sit on
// either side of p's in the slab, are untouched throughout.
func TestProbePlanesIsolatePlayers(t *testing.T) {
	for _, m := range []int{65, 130} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			const p = 1
			b := New(3, m)
			// Neighbours get every third object, with alternating grades.
			want := map[int]map[int]byte{p - 1: {}, p + 1: {}}
			for q, objs := range want {
				for o := q; o < m; o += 3 {
					objs[o] = byte(o % 2)
					b.PostProbe(q, o, objs[o])
				}
			}
			checkNeighbours := func(step string) {
				t.Helper()
				for q, objs := range want {
					got := b.ProbedObjects(q)
					if len(got) != len(objs) {
						t.Fatalf("%s: player %d has %d probes, want %d", step, q, len(got), len(objs))
					}
					for o, g := range objs {
						if got[o] != g {
							t.Fatalf("%s: player %d object %d = %d, want %d", step, q, o, got[o], g)
						}
					}
				}
			}
			all := make([]int, m)
			for o := range all {
				all[o] = o
				b.PostProbe(p, o, 1)
			}
			checkNeighbours("post")
			if got := len(b.ProbedObjects(p)); got != m {
				t.Fatalf("player %d has %d probes after posting all %d", p, got, m)
			}
			b.ClearProbes(p, all)
			checkNeighbours("clear")
			if got := len(b.ProbedObjects(p)); got != 0 {
				t.Fatalf("player %d has %d probes after ClearProbes", p, got)
			}
			if got, want := b.ProbeCount(), int64(len(want[p-1])+len(want[p+1])); got != want {
				t.Fatalf("ProbeCount = %d, want %d", got, want)
			}
		})
	}
}

func TestProbedObjectsCopy(t *testing.T) {
	b := New(2, 10)
	b.PostProbe(1, 3, 0)
	b.PostProbe(1, 7, 1)
	m := b.ProbedObjects(1)
	if len(m) != 2 || m[3] != 0 || m[7] != 1 {
		t.Fatalf("ProbedObjects = %v", m)
	}
	m[9] = 1 // mutating the copy must not affect the board
	if _, ok := b.LookupProbe(1, 9); ok {
		t.Fatal("copy mutation leaked into board")
	}
}

func TestVotesDeterministicAndSorted(t *testing.T) {
	b := New(6, 4)
	a := mustVec(t, "0101")
	c := mustVec(t, "1100")
	d := mustVec(t, "0011")
	// 3 votes for a, 2 for c, 1 for d, posted in scrambled order
	b.PostVector("x", 3, c)
	b.PostVector("x", 0, a)
	b.PostVector("x", 5, d)
	b.PostVector("x", 2, a)
	b.PostVector("x", 4, c)
	b.PostVector("x", 1, a)
	votes := b.Votes("x")
	if len(votes) != 3 {
		t.Fatalf("%d vote groups", len(votes))
	}
	if votes[0].Count != 3 || !votes[0].Vec.Equal(bitvec.PartialOf(a)) {
		t.Fatalf("top vote wrong: %+v", votes[0])
	}
	if votes[1].Count != 2 || votes[2].Count != 1 {
		t.Fatal("counts not sorted")
	}
	wantVoters := []int{0, 1, 2}
	for i, p := range votes[0].Voters {
		if p != wantVoters[i] {
			t.Fatalf("voters %v", votes[0].Voters)
		}
	}
}

func TestVotesTieBrokenLexicographically(t *testing.T) {
	b := New(4, 3)
	lo := mustVec(t, "001")
	hi := mustVec(t, "100")
	b.PostVector("t", 0, hi)
	b.PostVector("t", 1, lo)
	b.PostVector("t", 2, hi)
	b.PostVector("t", 3, lo)
	votes := b.Votes("t")
	if !votes[0].Vec.Equal(bitvec.PartialOf(lo)) {
		t.Fatal("tie not broken lexicographically")
	}
}

func TestPopularVectorsThreshold(t *testing.T) {
	b := New(5, 2)
	a := mustVec(t, "01")
	c := mustVec(t, "10")
	for p := 0; p < 3; p++ {
		b.PostVector("z", p, a)
	}
	b.PostVector("z", 3, c)
	pop := b.PopularVectors("z", 2)
	if len(pop) != 1 || !pop[0].Equal(bitvec.PartialOf(a)) {
		t.Fatalf("PopularVectors = %v", pop)
	}
	if got := b.PopularVectors("z", 5); got != nil {
		t.Fatalf("threshold 5 returned %v", got)
	}
}

func TestTopicsIsolated(t *testing.T) {
	b := New(2, 2)
	b.PostVector("a", 0, mustVec(t, "01"))
	b.PostVector("b", 1, mustVec(t, "10"))
	if len(b.Postings("a")) != 1 || len(b.Postings("b")) != 1 {
		t.Fatal("topics mixed")
	}
	if b.TopicCount() != 2 {
		t.Fatalf("TopicCount = %d", b.TopicCount())
	}
	b.DropTopic("a")
	if b.TopicCount() != 1 {
		t.Fatal("DropTopic failed")
	}
	if len(b.Postings("a")) != 0 {
		t.Fatal("dropped topic still has postings")
	}
}

func TestPartialPostings(t *testing.T) {
	b := New(2, 4)
	p, err := bitvec.PartialFromString("01?1")
	if err != nil {
		t.Fatal(err)
	}
	b.Post("p", 0, p)
	got := b.Postings("p")
	if len(got) != 1 || !got[0].Vec.Equal(p) {
		t.Fatalf("Postings = %v", got)
	}
	// ? and 0 must form different vote groups
	q, _ := bitvec.PartialFromString("0101")
	b.Post("p", 1, q)
	if len(b.Votes("p")) != 2 {
		t.Fatal("? and 0 postings merged in votes")
	}
}

func TestConcurrentPosting(t *testing.T) {
	const n = 64
	b := New(n, 128)
	r := rng.New(5)
	vecs := make([]bitvec.Vector, 4)
	for i := range vecs {
		vecs[i] = bitvec.Random(r, 128)
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < 128; o++ {
				b.PostProbe(p, o, byte(o&1))
			}
			b.PostVector("concurrent", p, vecs[p%len(vecs)])
			// interleave reads
			_ = b.Votes("concurrent")
			_, _ = b.LookupProbe((p+1)%n, 5)
		}(p)
	}
	wg.Wait()
	if b.ProbeCount() != n*128 {
		t.Fatalf("ProbeCount = %d, want %d", b.ProbeCount(), n*128)
	}
	votes := b.Votes("concurrent")
	total := 0
	for _, v := range votes {
		total += v.Count
	}
	if total != n || len(votes) != len(vecs) {
		t.Fatalf("votes total=%d groups=%d", total, len(votes))
	}
	if b.VectorPostCount() != n {
		t.Fatalf("VectorPostCount = %d", b.VectorPostCount())
	}
}

func TestConcurrentTopicCreation(t *testing.T) {
	b := New(8, 4)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.PostVector(fmt.Sprintf("topic-%d", i%10), p, bitvec.New(4))
			}
		}(p)
	}
	wg.Wait()
	if b.TopicCount() != 10 {
		t.Fatalf("TopicCount = %d, want 10", b.TopicCount())
	}
	for i := 0; i < 10; i++ {
		if got := len(b.Postings(fmt.Sprintf("topic-%d", i))); got != 40 {
			t.Fatalf("topic-%d has %d postings, want 40", i, got)
		}
	}
}

func BenchmarkPostProbe(b *testing.B) {
	board := New(1, 1<<20)
	for i := 0; i < b.N; i++ {
		board.PostProbe(0, i&(1<<20-1), 1)
	}
}

func BenchmarkVotes64(b *testing.B) {
	board := New(64, 256)
	r := rng.New(1)
	for p := 0; p < 64; p++ {
		board.PostVector("t", p, bitvec.Random(r, 256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = board.Votes("t")
	}
}
