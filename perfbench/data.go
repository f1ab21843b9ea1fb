package main

import (
	"math/rand"

	"repro/internal/storage"
)

// eventKinds are the events table's kind values, most frequent first.
var eventKinds = []string{"read", "write", "scan", "commit", "abort", "gc"}

var (
	eventKindWeights = []float64{0.40, 0.25, 0.15, 0.10, 0.06, 0.04}
	eventKindLoad    = []float64{20, 45, 70, 35, 85, 60}
)

// eventsTSpan bounds the ts values of an n-row events table.
func eventsTSpan(n int) int64 { return int64(2 * n) }

// eventsTable generates the session workload's table from the seed: a
// strictly increasing ts (so range sharding gives disjoint per-shard ts
// ranges, the layout zone maps and shard pruning exist for), a load
// that depends on kind, a kind drawn from a skewed distribution, and an
// ok flag that fails more often under high load.
func eventsTable(n int, seed int64) *storage.Table {
	r := rand.New(rand.NewSource(seed))
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
		storage.Field{Name: "kind", Type: storage.String},
		storage.Field{Name: "ok", Type: storage.Bool},
	)
	b := storage.NewBuilder("events", schema)
	for i := 0; i < n; i++ {
		ts := int64(2*i) + r.Int63n(2)
		kind := len(eventKinds) - 1
		u, acc := r.Float64(), 0.0
		for k, w := range eventKindWeights {
			if acc += w; u < acc {
				kind = k
				break
			}
		}
		load := min(max(eventKindLoad[kind]+r.NormFloat64()*12, 0), 100)
		ok := r.Float64() > load/150
		b.MustAppendRow(ts, float64(int(load*10))/10, eventKinds[kind], ok)
	}
	return b.MustBuild()
}
