package remote

import (
	"context"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/shard"
)

// TestServerStatsRPC: GET /shard/v1/stats reports the shard server's
// own counters through the fabric client, keeps serving while the
// server drains, and carries the build version.
func TestServerStatsRPC(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 23), 2, 256)
	f := startFabric(t, manifest, nil)

	sb, err := testOpener().OpenShardCtx(context.Background(), []string{f.servers[0].URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sb.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The open itself already cost meta and zones RPCs.
	if st.Requests < 2 {
		t.Errorf("Requests = %d, want >= 2 after an open", st.Requests)
	}
	if st.BytesOut == 0 {
		t.Errorf("BytesOut = 0 after served responses")
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}

	// Draining servers still answer the stats RPC — drain must be
	// observable, and report itself.
	f.shardSrv[0].SetDraining(true)
	st2, err := sb.ServerStats(context.Background())
	if err != nil {
		t.Fatalf("stats RPC refused during drain: %v", err)
	}
	if !st2.Draining {
		t.Error("draining server reports Draining=false")
	}
	if st2.Requests < st.Requests {
		t.Errorf("request counter went backwards: %d -> %d", st.Requests, st2.Requests)
	}
	f.shardSrv[0].SetDraining(false)

	// The DTO carries the build version (used by fleet dashboards to
	// spot mixed-version deployments).
	var dto shardStatsDTO
	c := sb.(*Client)
	if err := c.getJSON(context.Background(), "stats", "/shard/v1/stats", nil, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Version != obsv.Version {
		t.Errorf("stats version = %q, want %q", dto.Version, obsv.Version)
	}
}

// TestSetShardServerStats: the Set-level seam the coordinator's fleet
// poller uses — remote shards poll, local shards report unpolled.
func TestSetShardServerStats(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 23), 2, 256)
	f := startFabric(t, manifest, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 2; i++ {
		st, polled, err := set.ShardServerStats(context.Background(), i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !polled {
			t.Fatalf("shard %d not polled over the fabric", i)
		}
		if st.Requests == 0 {
			t.Errorf("shard %d reports zero requests after opens", i)
		}
	}

	localSet, err := shard.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer localSet.Close()
	_, polled, err := localSet.ShardServerStats(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if polled {
		t.Error("local shard claimed to be polled over the fabric")
	}
}
