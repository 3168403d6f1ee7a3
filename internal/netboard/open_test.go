package netboard

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/telemetry"
)

func TestOpenInProcess(t *testing.T) {
	b, err := Open("", 8, 32, Config{Codec: "json", Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*billboard.Board); !ok {
		t.Fatalf("empty spec resolved to %T, want *billboard.Board", b)
	}
}

func TestOpenSingleURL(t *testing.T) {
	b, err := Open(" http://localhost:7070 ", 8, 32, Config{Codec: "json"})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := b.(*Client)
	if !ok {
		t.Fatalf("single URL resolved to %T, want *Client", b)
	}
	if c.core.baseURL != "http://localhost:7070" {
		t.Fatalf("base URL = %q (spec must be trimmed)", c.core.baseURL)
	}
}

func TestOpenCluster(t *testing.T) {
	b, err := Open("http://a:1,http://b:2", 8, 32, Config{Codec: "json"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*Cluster); !ok {
		t.Fatalf("shard list resolved to %T, want *Cluster", b)
	}
	if _, err := Open("http://a:1,", 8, 32, Config{}); err == nil {
		t.Fatal("empty shard in list must be rejected")
	}
}

// TestOpenTrimsShardURLs: a shard list written with spaces after the
// commas must address the same shards as the unspaced list. An
// untrimmed " http://..." shard URL fails on its first request.
func TestOpenTrimsShardURLs(t *testing.T) {
	boards := make([]*billboard.Board, 2)
	urls := make([]string, 2)
	for i := range boards {
		boards[i] = billboard.New(4, 64)
		srv := httptest.NewServer(NewServer(boards[i]))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	b, err := Open(" "+urls[0]+" , "+urls[1]+" ", 4, 64, Config{Codec: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	cl := b.(*Cluster)
	if got := cl.Shards(); !reflect.DeepEqual(got, urls) {
		t.Fatalf("shards = %q, want %q", got, urls)
	}
	objs := make([]int, 64)
	grades := make([]byte, 64)
	for o := range objs {
		objs[o], grades[o] = o, byte(o&1)
	}
	cl.PostProbes(1, objs, grades)
	if got := boards[0].ProbeCount() + boards[1].ProbeCount(); got != 64 {
		t.Fatalf("shards hold %d probes, want 64", got)
	}
	if boards[0].ProbeCount() == 0 || boards[1].ProbeCount() == 0 {
		t.Fatal("the ring left a shard empty; both URLs must be exercised")
	}
}

// TestOpenRejectsUnknownCodec: a misspelled codec fails at Open for
// every spec shape instead of quietly running JSON.
func TestOpenRejectsUnknownCodec(t *testing.T) {
	for _, spec := range []string{"", "http://a:1", "http://a:1,http://b:2"} {
		if _, err := Open(spec, 8, 32, Config{Codec: "bin"}); err == nil {
			t.Errorf("spec %q: codec \"bin\" accepted", spec)
		}
	}
}
