package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/remote/chaos"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
)

// chaos-driven failover coverage: every replica of an in-process
// fabric sits behind a chaos.Injector, tests script the faults (a
// replica killed mid-Explore, 500 storms, corrupt payloads) and the
// exploration must complete byte-identically against the survivors.

// repFabric is a replicated in-process deployment: each shard is served
// by several replica servers, every one behind its own fault injector.
type repFabric struct {
	manifest  string
	urls      [][]string          // [shard][replica]
	injectors [][]*chaos.Injector // [shard][replica]
	shardSrv  [][]*Server         // [shard][replica]
}

// startReplicatedFabric spins `replicas` chaos-wrapped servers per shard
// of localManifest and writes the v3 coordinator manifest naming them.
func startReplicatedFabric(t *testing.T, localManifest string, replicas int) *repFabric {
	t.Helper()
	m, err := shard.ReadManifest(localManifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(localManifest)
	rf := &repFabric{}
	entries := make([]string, len(m.Shards))
	for _, sf := range m.Shards {
		var urls []string
		var injs []*chaos.Injector
		var srvs []*Server
		for r := 0; r < replicas; r++ {
			st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
			if err != nil {
				t.Fatal(err)
			}
			rs := NewServer(st)
			in := chaos.Wrap(rs.Handler())
			ts := httptest.NewServer(in)
			t.Cleanup(ts.Close)
			t.Cleanup(func() { st.Close() })
			urls = append(urls, ts.URL)
			injs = append(injs, in)
			srvs = append(srvs, rs)
		}
		entries[len(rf.urls)] = strings.Join(urls, "|")
		rf.urls = append(rf.urls, urls)
		rf.injectors = append(rf.injectors, injs)
		rf.shardSrv = append(rf.shardSrv, srvs)
	}
	rm, err := shard.RemoteManifest(m, entries)
	if err != nil {
		t.Fatal(err)
	}
	rf.manifest = filepath.Join(t.TempDir(), "replicated.atlm")
	if err := shard.WriteManifestFile(rf.manifest, rm); err != nil {
		t.Fatal(err)
	}
	return rf
}

// unshardedRef renders the reference result of q over the plain table.
func unshardedRef(t *testing.T, tbl *storage.Table, q query.Query) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	cart, err := core.NewCartographer(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Canonical()
}

// TestFailoverMidExploreByteIdentical is the tentpole acceptance test:
// a 4-shard × 2-replica fabric loses one replica in the middle of an
// exploration's request stream, and the run must still complete — with
// a result byte-identical to the unsharded table's.
func TestFailoverMidExploreByteIdentical(t *testing.T) {
	tbl := datagen.Census(12_000, 7)
	local := writeShardedInputs(t, tbl, 4, 256)
	rf := startReplicatedFabric(t, local, 2)
	q := query.New("census", query.NewRange("age", 20, 70))
	want := unshardedRef(t, tbl, q)

	opener := NewOpener(Options{Timeout: 5 * time.Second, RetryWait: time.Millisecond, BreakerCooldown: time.Minute})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	// Arm the death AFTER the open, so shard 1's primary serves the
	// metadata, then dies two requests into the exploration itself.
	rf.injectors[1][0].KillAfter(2)

	opts := core.DefaultOptions()
	opts.Parallelism = 4
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatalf("exploration failed despite a live replica: %v", err)
	}
	if got := res.Canonical(); got != want {
		t.Errorf("failover result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded while a replica was dying")
	}
	if rf.injectors[1][1].Requests() == 0 {
		t.Error("shard 1's surviving replica was never dialed")
	}
	h := set.ShardHealth(1)
	if len(h.Replicas) != 2 {
		t.Fatalf("ShardHealth reports %d replicas, want 2", len(h.Replicas))
	}
	if !h.Healthy {
		t.Errorf("shard unhealthy despite a live replica: %v", h.Err)
	}
}

// TestReplicaBreakerAndRecovery walks the breaker state machine:
// trip on failure, out of rotation while open, half-open probe after
// the cooldown, closed again on success — all without reopening the
// shard.
func TestReplicaBreakerAndRecovery(t *testing.T) {
	tbl := datagen.Census(3_000, 11)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{
		Timeout: 2 * time.Second, Retries: -1, RetryWait: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond,
	})
	be, err := opener.OpenShard(rf.urls[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	p := query.NewRange("age", 30, 40)
	if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	primary, secondary := rf.injectors[0][0], rf.injectors[0][1]

	// The primary starts 500ing: the first strike trips its breaker
	// (threshold 1) and the call still succeeds via the replica.
	primary.SetFault(chaos.Error5xx)
	if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
		t.Fatalf("call failed despite a healthy replica: %v", err)
	}
	reps := c.Replicas()
	if len(reps) != 2 {
		t.Fatalf("Replicas() reports %d entries, want 2", len(reps))
	}
	if reps[0].State != "tripped" {
		t.Errorf("primary state %q after a trip, want tripped", reps[0].State)
	}
	if reps[0].Err == nil {
		t.Error("tripped primary carries no error")
	}
	if reps[1].State != "healthy" {
		t.Errorf("replica state %q, want healthy", reps[1].State)
	}
	if opener.Stats().Failovers == 0 {
		t.Error("failover not counted")
	}

	// Tripped means out of rotation: further traffic leaves it alone
	// instead of hammering a dead peer.
	before := primary.Requests()
	for i := 0; i < 5; i++ {
		if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if got := primary.Requests(); got != before {
		t.Errorf("tripped primary served %d more requests", got-before)
	}

	// Recovery: the primary heals, the replica dies. Past the cooldown
	// the next touch probes the primary half-open; its success closes
	// the breaker again.
	primary.Heal()
	secondary.SetFault(chaos.Kill)
	time.Sleep(80 * time.Millisecond)
	if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
		t.Fatalf("probe of the healed primary failed: %v", err)
	}
	reps = c.Replicas()
	if reps[0].State != "healthy" {
		t.Errorf("primary state %q after recovery, want healthy", reps[0].State)
	}
}

// TestBreakerSingleReplicaSelfHeals: with only one location, a tripped
// breaker never blackholes the shard — the sole replica is re-dialed
// on the next touch even inside the cooldown.
func TestBreakerSingleReplicaSelfHeals(t *testing.T) {
	tbl := datagen.Census(2_000, 13)
	local := writeShardedInputs(t, tbl, 1, 256)
	rf := startReplicatedFabric(t, local, 1)
	opener := NewOpener(Options{
		Timeout: 2 * time.Second, Retries: -1, RetryWait: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	be, err := opener.OpenShard(rf.urls[0], colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	p := query.NewRange("age", 30, 40)
	inj := rf.injectors[0][0]
	inj.SetFault(chaos.Error5xx)
	if _, _, err := c.PredicateBits(context.Background(), p); err == nil {
		t.Fatal("succeeded against a 500ing sole replica")
	}
	if state := c.Replicas()[0].State; state != "tripped" {
		t.Errorf("sole replica state %q, want tripped", state)
	}
	inj.Heal()
	if _, _, err := c.PredicateBits(context.Background(), p); err != nil {
		t.Fatalf("tripped sole replica was never re-dialed: %v", err)
	}
	if state := c.Replicas()[0].State; state != "healthy" {
		t.Errorf("sole replica state %q after recovery, want healthy", state)
	}
}

// TestChaosCorruptionFailsOver: one shard's primary corrupts chunk
// bodies, another's truncates them. The CRC/length checks must catch
// both and rotate to the clean replica, byte-identically.
func TestChaosCorruptionFailsOver(t *testing.T) {
	tbl := datagen.Census(8_000, 5)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	q := query.New("census", query.NewRange("age", 18, 80))
	want := unshardedRef(t, tbl, q)

	chunkOnly := func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/chunk") }
	rf.injectors[0][0].Match(chunkOnly)
	rf.injectors[0][0].SetFault(chaos.Corrupt)
	rf.injectors[1][0].Match(chunkOnly)
	rf.injectors[1][0].SetFault(chaos.Truncate)

	opener := NewOpener(Options{Timeout: 5 * time.Second, RetryWait: time.Millisecond})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatalf("exploration failed despite clean replicas: %v", err)
	}
	if got := res.Canonical(); got != want {
		t.Errorf("tampered-fabric result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if rf.injectors[0][0].Injected() == 0 || rf.injectors[1][0].Injected() == 0 {
		t.Error("chaos faults were never exercised — test lost its teeth")
	}
	if opener.Stats().Failovers == 0 {
		t.Error("no failover recorded despite tampered payloads")
	}
}

// TestAllReplicasDeadNamesShard: when every replica of a shard is
// dead, the exploration fails with an error naming the shard's primary
// location — never a partial result.
func TestAllReplicasDeadNamesShard(t *testing.T) {
	tbl := datagen.Census(4_000, 19)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)
	opener := NewOpener(Options{Timeout: 500 * time.Millisecond, Retries: -1, RetryWait: time.Millisecond})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	rf.injectors[1][0].SetFault(chaos.Kill)
	rf.injectors[1][1].SetFault(chaos.Kill)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cart.Explore(query.New("census", query.NewRange("age", 18, 80)))
	if res != nil {
		t.Error("got a result from a shard with no live replica; partial answers must not be served")
	}
	assertNamedShardError(t, err, rf.urls[1][0])
}

// TestBatchStatsRPCBound runs a cold full-table Explore over a 4-shard
// fabric: the result must equal the unsharded one, and the whole
// statistics plane must cost one batchstats RPC per shard — every
// attribute's statistics in one round trip.
func TestBatchStatsRPCBound(t *testing.T) {
	tbl := datagen.Census(10_000, 23)
	const shards = 4
	local := writeShardedInputs(t, tbl, shards, 256)
	q := query.New("census")
	want := unshardedRef(t, tbl, q)

	f := startFabric(t, local, nil)
	opener := testOpener()
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if err != nil {
		t.Fatal(err)
	}
	s0 := opener.Stats()
	res, err := cart.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	s1 := opener.Stats()
	statsRPCs := (s1.RPCs - s0.RPCs) - (s1.ChunkFetches - s0.ChunkFetches)
	if got := res.Canonical(); got != want {
		t.Errorf("fabric result differs from unsharded:\nwant:\n%s\ngot:\n%s", want, got)
	}
	t.Logf("stats-plane RPCs: %d", statsRPCs)
	if statsRPCs > shards {
		t.Errorf("cold Explore spent %d stats-plane RPCs, want at most %d (one batch per shard)", statsRPCs, shards)
	}
}

// TestServerMemoizesStatistics: a shard server computes each
// attribute's statistics once, ever — a second client (a coordinator
// restart) is served from the memo.
func TestServerMemoizesStatistics(t *testing.T) {
	tbl := datagen.Census(4_000, 31)
	local := writeShardedInputs(t, tbl, 1, 256)
	f := startFabric(t, local, nil)
	srv := f.shardSrv[0]
	opener := testOpener()

	touch := func() {
		be, err := opener.OpenShard([]string{f.servers[0].URL}, colstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		c := be.(*Client)
		if _, err := c.NumericValues(context.Background(), "age"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CategoryCounts(context.Background(), "sex"); err != nil {
			t.Fatal(err)
		}
	}
	touch()
	after := srv.Stats().StatComputes
	if after == 0 {
		t.Fatal("no statistics computed at all")
	}
	touch()
	if got := srv.Stats().StatComputes; got != after {
		t.Errorf("second client recomputed statistics: %d → %d computes", after, got)
	}
}

// TestPredicateBitsWire: the bitmap a shard serves over the stats plane
// is exactly the local scan's.
func TestPredicateBitsWire(t *testing.T) {
	tbl := datagen.Census(5_000, 37)
	local := writeShardedInputs(t, tbl, 1, 256)
	f := startFabric(t, local, nil)
	be, err := testOpener().OpenShard([]string{f.servers[0].URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c := be.(*Client)
	for _, p := range []query.Predicate{
		query.NewRange("age", 20, 40),
		query.NewIn("sex", "F"),
		query.NewRange("age", 200, 300), // empty
	} {
		want, err := engine.EvalPredicate(tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		count, words, err := c.PredicateBits(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", p.String(), err)
		}
		if count != want.Count() {
			t.Errorf("%s: count %d, want %d", p.String(), count, want.Count())
		}
		ww := want.Words()
		if len(words) != len(ww) {
			t.Fatalf("%s: %d words, want %d", p.String(), len(words), len(ww))
		}
		for i := range ww {
			if words[i] != ww[i] {
				t.Fatalf("%s: bitmap word %d differs", p.String(), i)
			}
		}
	}
}

// TestSessionBaseBitsSkipChunkPlane: assembling a session base over the
// bitmap plane must pull no chunk from any shard, where a failing
// predcount probe falls back to scanning — and both produce the same
// result.
func TestSessionBaseBitsSkipChunkPlane(t *testing.T) {
	tbl := datagen.Census(8_000, 41)
	local := writeShardedInputs(t, tbl, 4, 256)
	q := query.New("census", query.NewRange("age", 25, 60), query.NewIn("sex", "F"))

	run := func(failProbe bool) (string, int64) {
		var chunkRPCs atomic.Int64
		f := startFabric(t, local, func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case failProbe && strings.HasSuffix(r.URL.Path, "/predcount"):
					http.Error(w, "synthetic predcount failure", http.StatusBadRequest)
					return
				case strings.HasSuffix(r.URL.Path, "/chunk"):
					chunkRPCs.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		})
		set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		opts := core.DefaultOptions()
		opts.Parallelism = 2
		cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
		if err != nil {
			t.Fatal(err)
		}
		sess := session.NewSharded(cart, set)
		before := chunkRPCs.Load()
		node, err := sess.Explore(q)
		if err != nil {
			t.Fatal(err)
		}
		return node.Result.Canonical(), chunkRPCs.Load() - before
	}

	gotBits, bitsChunks := run(false)
	gotScan, scanChunks := run(true)
	if gotBits != gotScan {
		t.Errorf("bitmap-plane session result differs from scan fallback:\nbits:\n%s\nscan:\n%s", gotBits, gotScan)
	}
	t.Logf("session chunk RPCs: bits=%d scan=%d", bitsChunks, scanChunks)
	if bitsChunks != 0 {
		t.Errorf("session base assembly fetched %d chunks despite the bitmap plane", bitsChunks)
	}
	if scanChunks == 0 {
		t.Error("scan fallback fetched no chunks — test lost its teeth")
	}
}
