package shard

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// remoteTestManifest builds a minimal valid remote manifest with the
// given shard locations (primary + replicas): one int64 column, and the
// mandatory per-shard statistics filled in.
func remoteTestManifest(shards []ShardFile, rows int) *Manifest {
	for i := range shards {
		shards[i].Stats = []ColumnStats{{}}
	}
	return &Manifest{
		Version:      ManifestVersion,
		Table:        "t",
		Partitioning: PartitionRange,
		ChunkSize:    64,
		Rows:         rows,
		Columns:      []ColumnSchema{{Name: "x", Type: "int64"}},
		Shards:       shards,
	}
}

// TestManifestV3ReplicaRoundTrip: replica locations survive a
// write/read cycle and Locations() yields the dial order.
func TestManifestV3ReplicaRoundTrip(t *testing.T) {
	m := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093", "https://c:8443"}},
		{File: "http://d:8093", Rows: 64},
	}, 128)
	path := filepath.Join(t.TempDir(), "r.atlm")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion {
		t.Errorf("version %d, want %d", got.Version, ManifestVersion)
	}
	locs := got.Shards[0].Locations()
	want := []string{"http://a:8093", "http://b:8093", "https://c:8443"}
	if len(locs) != len(want) {
		t.Fatalf("shard 0 locations %v, want %v", locs, want)
	}
	for i := range want {
		if locs[i] != want[i] {
			t.Errorf("location %d = %q, want %q", i, locs[i], want[i])
		}
	}
	if locs := got.Shards[1].Locations(); len(locs) != 1 || locs[0] != "http://d:8093" {
		t.Errorf("replica-less shard locations %v, want just the primary", locs)
	}
}

// TestManifestReplicaValidation: replicas demand a remote primary and
// must themselves be http(s):// locations; a pre-v3 manifest is refused
// by version before its replicas are looked at.
func TestManifestReplicaValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.atlm")

	local := remoteTestManifest([]ShardFile{
		{File: "t.00000.atl", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, local); err == nil {
		t.Error("replicas on a local shard file validated")
	} else if !strings.Contains(err.Error(), "remote primary") {
		t.Errorf("error %q does not explain the remote-primary rule", err)
	}

	badURL := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, badURL); err == nil {
		t.Error("non-URL replica validated")
	} else if !strings.Contains(err.Error(), "http(s)") {
		t.Errorf("error %q does not name the URL rule", err)
	}

	old := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	old.Version = 2
	if err := WriteManifestFile(path, old); !errors.Is(err, ErrOldManifest) {
		t.Errorf("v2 manifest with replicas: err = %v, want ErrOldManifest", err)
	}
}

// TestRemoteManifestReplicaSyntax: '|'-separated URL entries split into
// primary + replicas, with whitespace and trailing slashes normalized.
func TestRemoteManifestReplicaSyntax(t *testing.T) {
	tbl := eventsTable(t, 512)
	dir := t.TempDir()
	local, err := WriteSharded(filepath.Join(dir, "e.atlm"), tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RemoteManifest(local, []string{
		"http://a:8093/ | http://b:8093",
		"http://c:8093",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Version != ManifestVersion {
		t.Errorf("remote manifest version %d, want %d", rm.Version, ManifestVersion)
	}
	s0 := rm.Shards[0]
	if s0.File != "http://a:8093" {
		t.Errorf("shard 0 primary %q, want normalized http://a:8093", s0.File)
	}
	if len(s0.Replicas) != 1 || s0.Replicas[0] != "http://b:8093" {
		t.Errorf("shard 0 replicas %v, want [http://b:8093]", s0.Replicas)
	}
	if s1 := rm.Shards[1]; s1.File != "http://c:8093" || len(s1.Replicas) != 0 {
		t.Errorf("shard 1 = %q/%v, want lone http://c:8093", s1.File, s1.Replicas)
	}
	// The local manifest is untouched (RemoteManifest copies).
	if local.Shards[0].File == s0.File || len(local.Shards[0].Replicas) != 0 {
		t.Error("RemoteManifest mutated its input manifest")
	}
	if _, err := RemoteManifest(local, []string{"http://a:8093|not a url", ""}); err == nil {
		t.Error("bad replica URL accepted")
	}
}
