package netboard

import (
	"strings"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/wire"
)

// Open resolves a board spec to the billboard it names: an empty spec
// is an in-memory board for n players and m objects, one base URL is a
// Client, and a comma-separated list of base URLs is a Cluster (see
// NewCluster for the list's rules). Surrounding space is trimmed from
// the spec and from each shard URL, and cfg.Codec must name a wire
// codec even when the board is in memory, so a misspelled codec fails
// at startup instead of quietly running JSON. cfg configures the
// remote clients; its Telemetry registry is attached to an in-memory
// board too.
func Open(spec string, n, m int, cfg Config) (boardclient.Interface, error) {
	if _, err := wire.ByName(cfg.Codec); err != nil {
		return nil, err
	}
	spec = strings.TrimSpace(spec)
	switch {
	case spec == "":
		mem := billboard.New(n, m)
		mem.SetTelemetry(cfg.Telemetry)
		return mem, nil
	case strings.Contains(spec, ","):
		shards := strings.Split(spec, ",")
		for i := range shards {
			shards[i] = strings.TrimSpace(shards[i])
		}
		cluster, err := NewCluster(ClusterConfig{Shards: shards, Client: cfg})
		if err != nil {
			return nil, err
		}
		return cluster, nil
	default:
		return NewClientWithConfig(spec, cfg), nil
	}
}
