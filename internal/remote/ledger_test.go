package remote

import (
	"context"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// fabricCounters bundles every counter plane the ledger mirrors:
// the cartographer's scan stats, the shard set's store I/O, and the
// opener's fabric accounting. Comparable, so stability polling can
// just compare struct values.
type fabricCounters struct {
	scan engine.Snapshot
	io   colstore.IOStats
	fab  Stats
}

func readFabricCounters(cart *core.Cartographer, set *shard.Set, op *Opener) fabricCounters {
	return fabricCounters{scan: cart.ScanStats(), io: set.IOStats(), fab: op.Stats()}
}

// waitSettled polls until two consecutive reads agree — detached
// prefetches land asynchronously, and both the counters and the ledger
// must stop moving before a delta comparison means anything.
func waitSettled(t *testing.T, read func() fabricCounters) fabricCounters {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	prev := read()
	for {
		time.Sleep(25 * time.Millisecond)
		cur := read()
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled:\n  %+v\nvs\n  %+v", prev, cur)
		}
		prev = cur
	}
}

// TestLedgerExactnessOnFabric is the resource-ledger acceptance test:
// on a 2-shard × 2-replica fabric, an exploration run under a ledger
// context must be billed EXACTLY — the ledger's scan, store, and
// fabric planes equal the deltas of the pre-existing counters
// (engine.ScanStats, colstore.IOStats, opener Stats) over the same
// query. The ledger bills at the same call sites as those counters,
// so any drift is a missed or double-billed site.
func TestLedgerExactnessOnFabric(t *testing.T) {
	testLedgerExactness(t, false)
}

// TestLedgerExactnessDeferredOpen covers the deferred-open billing
// path: the first query forces the shard opens, and the open's own
// metadata/zone RPCs must land on its bill like everything else.
func TestLedgerExactnessDeferredOpen(t *testing.T) {
	testLedgerExactness(t, true)
}

func testLedgerExactness(t *testing.T, deferOpen bool) {
	tbl := datagen.Census(8_000, 43)
	local := writeShardedInputs(t, tbl, 2, 256)
	rf := startReplicatedFabric(t, local, 2)

	opener := NewOpener(Options{Timeout: 10 * time.Second})
	set, err := shard.OpenWith(rf.manifest, shard.Options{Remote: opener, Defer: deferOpen})
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

	read := func() fabricCounters { return readFabricCounters(cart, set, opener) }
	q := query.New("census", query.NewRange("age", 25, 60))

	// Two passes: a cold one (stats, dictionaries, and chunks all paid
	// on the wire) and a warm one (mostly cache hits). Exactness must
	// hold at ANY cache state — the bill changes, the match does not.
	for pass, name := range []string{"cold", "warm"} {
		led := obsv.NewLedger()
		ctx := obsv.WithLedger(context.Background(), led)

		before := waitSettled(t, read)
		res, err := cart.ExploreCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s explore: %v", name, err)
		}
		if len(res.Maps) == 0 {
			t.Fatalf("%s explore returned no maps", name)
		}
		led.Finish()

		// Settle counters AND the ledger together: a detached prefetch
		// bills both sides when it lands, so snapshot only once neither
		// is moving.
		var s obsv.LedgerSnapshot
		after := waitSettled(t, func() fabricCounters {
			c := read()
			s = led.Snapshot()
			return c
		})

		if got, want := s.ChunksScanned, after.scan.ChunksScanned-before.scan.ChunksScanned; got != want {
			t.Errorf("%s: ledger ChunksScanned = %d, scan-stat delta = %d", name, got, want)
		}
		if got, want := s.ChunksPruned, after.scan.ChunksPruned-before.scan.ChunksPruned; got != want {
			t.Errorf("%s: ledger ChunksPruned = %d, scan-stat delta = %d", name, got, want)
		}
		if got, want := s.ChunksFull, after.scan.ChunksFull-before.scan.ChunksFull; got != want {
			t.Errorf("%s: ledger ChunksFull = %d, scan-stat delta = %d", name, got, want)
		}
		if got, want := s.ChunksDecoded, after.scan.ChunksDecoded-before.scan.ChunksDecoded; got != want {
			t.Errorf("%s: ledger ChunksDecoded = %d, scan-stat delta = %d", name, got, want)
		}
		if got, want := s.ChunkCacheHits, after.scan.ChunkCacheHits-before.scan.ChunkCacheHits; got != want {
			t.Errorf("%s: ledger ChunkCacheHits = %d, scan-stat delta = %d", name, got, want)
		}
		if got, want := s.BytesRead, after.io.BytesRead-before.io.BytesRead; got != want {
			t.Errorf("%s: ledger BytesRead = %d, store delta = %d", name, got, want)
		}
		if got, want := s.StoreChunksDecoded, after.io.ChunksDecoded-before.io.ChunksDecoded; got != want {
			t.Errorf("%s: ledger StoreChunksDecoded = %d, store delta = %d", name, got, want)
		}
		if got, want := s.RPCs, after.fab.RPCs-before.fab.RPCs; got != want {
			t.Errorf("%s: ledger RPCs = %d, opener delta = %d", name, got, want)
		}
		if got, want := s.BytesWire, after.fab.BytesIn-before.fab.BytesIn; got != want {
			t.Errorf("%s: ledger BytesWire = %d, opener delta = %d", name, got, want)
		}

		// The cold pass must actually exercise the fabric — an exact
		// match of all-zero deltas would prove nothing.
		if pass == 0 {
			if s.RPCs == 0 || s.BytesWire == 0 {
				t.Errorf("cold pass billed no fabric traffic: %+v", s)
			}
			if s.ChunksScanned+s.ChunksPruned+s.ChunksFull == 0 {
				t.Errorf("cold pass billed no chunk verdicts: %+v", s)
			}
		}
	}
}

// TestLedgerPrefetchBilled: a prefetch hint issued under a ledger
// context on a set-backed lazy column over a remote shard must bill its
// speculative RPC and decode to that ledger, matching the opener's own
// counters. The hint crosses three chunk sources — the set's routing
// source, the shard view offset, and the fabric client — and each must
// carry the context through.
func TestLedgerPrefetchBilled(t *testing.T) {
	tbl := datagen.Census(2_000, 47)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, nil)
	opener := testOpener()
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	ci := set.Table().Schema().Index("age")
	for name, tb := range map[string]*storage.Table{"combined": set.Table(), "view": set.ShardTable(1)} {
		col, ok := tb.Column(ci).(*storage.LazyColumn)
		if !ok {
			t.Fatalf("%s: age is %T, want a lazy column", name, tb.Column(ci))
		}
		led := obsv.NewLedger()
		ctx := obsv.WithLedger(context.Background(), led)
		before := opener.Stats()
		col.PrefetchHintCtx(ctx, 1)

		deadline := time.Now().Add(10 * time.Second)
		for opener.Stats().ChunkFetches == before.ChunkFetches {
			if time.Now().After(deadline) {
				t.Fatalf("%s: prefetch never fetched the chunk", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
		var s obsv.LedgerSnapshot
		after := waitSettled(t, func() fabricCounters {
			s = led.Snapshot()
			return fabricCounters{fab: opener.Stats()}
		}).fab
		if s.RPCs != 1 || s.RPCs != after.RPCs-before.RPCs {
			t.Errorf("%s: ledger RPCs = %d, opener delta = %d, want 1", name, s.RPCs, after.RPCs-before.RPCs)
		}
		if s.StoreChunksDecoded != 1 {
			t.Errorf("%s: ledger StoreChunksDecoded = %d, want 1", name, s.StoreChunksDecoded)
		}
		if s.BytesWire == 0 || s.BytesWire != after.BytesIn-before.BytesIn {
			t.Errorf("%s: ledger BytesWire = %d, opener delta = %d", name, s.BytesWire, after.BytesIn-before.BytesIn)
		}
	}
}
