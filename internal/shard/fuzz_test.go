package shard

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
)

// FuzzParseManifest: arbitrary manifest bytes must never panic the
// reader or the manifest-level pruning test — they validate or fail
// with an error — and a manifest that validates survives a write/read
// round trip unchanged.
func FuzzParseManifest(f *testing.F) {
	m, err := WriteSharded(filepath.Join(f.TempDir(), "c.atlm"), datagen.Census(600, 3), IngestOptions{Shards: 2, ChunkSize: 256})
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	rm, err := RemoteManifest(m, []string{"http://a:8093|http://b:8093", ""})
	if err != nil {
		f.Fatal(err)
	}
	remote, err := json.Marshal(rm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(remote)
	f.Add([]byte(`{"version": 2}`))
	preds := []query.Predicate{
		query.NewRange("age", 20, 40),
		query.NewIn("sex", "F"),
		query.NewRange("nosuch", 0, 1),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		for i := -1; i <= len(m.Shards); i++ {
			for _, p := range preds {
				m.ShardMayMatch(i, p)
			}
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseManifest(out)
		if err != nil {
			t.Fatalf("valid manifest does not re-read: %v", err)
		}
		if out2, _ := json.Marshal(again); string(out2) != string(out) {
			t.Fatalf("round trip changed the manifest:\n%s\nvs\n%s", out, out2)
		}
	})
}
