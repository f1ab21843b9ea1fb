// Package session implements exploration sessions: the drill-down tree a
// user walks while "answering queries with queries" (Figure 1), a result
// cache, and the anticipative computation of Section 5.1 (precomputing
// the maps of regions the user is likely to open next during idle time).
package session

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// Node is one step of the exploration: a query and its ranked maps.
type Node struct {
	// ID identifies the node within its session.
	ID int
	// Parent is the id of the node this one was drilled down from, or
	// -1 for a root exploration.
	Parent int
	// Query is the explored query.
	Query query.Query
	// Result holds the ranked maps for Query.
	Result *core.Result
	// Children lists nodes drilled down from this one.
	Children []int
}

// ShardLayout describes a sharded table to a session: the per-shard
// chunk-aware views and their row offsets in the combined table (see
// internal/shard.Set, which implements it). Sessions over a layout scan
// and cache predicate bitmaps per shard.
type ShardLayout interface {
	// NumShards returns the number of shards.
	NumShards() int
	// ShardTable returns shard i's view over the combined table's rows.
	ShardTable(i int) *storage.Table
	// ShardOffset returns shard i's first row in the combined table.
	ShardOffset(i int) int
}

// ShardPruner is the optional shard-file pruning interface of a layout
// (implemented by shard.Set from the manifest statistics): a false
// answer proves predicate p matches no row of shard i, letting the
// session skip the shard's predicate scan entirely — on memory-tiered
// sets, without even opening the shard's file.
type ShardPruner interface {
	ShardMayMatch(shard int, p query.Predicate) bool
}

// ShardPredBitmapper is the optional statistics-plane probe of a layout
// (implemented by shard.Set for shards served over the remote fabric):
// with ok=true the returned bitmap IS shard i's selection under p,
// computed where the shard lives and validated against the server's
// own count. The session consults it on predicate-bitmap cache misses —
// then predicates assemble without any chunk crossing the wire.
// ok=false (local shards) falls back to the scan.
type ShardPredBitmapper interface {
	RemotePredicateBits(ctx context.Context, shard int, p query.Predicate) (bm *bitvec.Vector, ok bool, err error)
}

// Session is a stateful exploration over one table. It is safe for
// concurrent use.
type Session struct {
	mu      sync.Mutex
	cart    *core.Cartographer
	nodes   []*Node
	current int
	cache   map[string]*core.Result
	// preds is the bounded LRU of per-predicate selection bitmaps: a
	// drill-down shares every predicate with its parent query, so its
	// base selection is assembled from cached bitmaps plus one new scan.
	// On sharded tables entries are keyed per (predicate, shard).
	preds *predCache
	// shards, when non-nil, fans base-selection assembly out per shard.
	shards ShardLayout
	// interest holds the decayed per-attribute weights behind
	// personalized ranking (see preference.go).
	interest map[string]float64
	// prefetch bookkeeping
	prefetching sync.WaitGroup
}

// New creates an empty session over the cartographer's table.
func New(cart *core.Cartographer) *Session {
	return &Session{
		cart:    cart,
		current: -1,
		cache:   map[string]*core.Result{},
		preds:   newPredCache(predCacheCapForRows(cart.Table().NumRows())),
	}
}

// NewSharded creates a session over a sharded table: cart must explore
// the layout's combined table. Base selections are assembled shard by
// shard — predicate scans run concurrently across shards and their
// bitmaps are cached in a per-shard keyed LRU, so a drill-down
// re-scans only the new predicate, and only shard-locally.
func NewSharded(cart *core.Cartographer, layout ShardLayout) *Session {
	s := New(cart)
	s.shards = layout
	s.preds = newPredCache(predCacheCapForShards(layout))
	return s
}

// explore runs one exploration, assembling the base selection from the
// per-predicate bitmap cache. Safe without s.mu: the predicate cache
// has its own lock and the Cartographer is concurrency-safe.
func (s *Session) explore(ctx context.Context, q query.Query) (*core.Result, error) {
	t := s.cart.Table()
	if q.Table != "" && q.Table != t.Name() {
		// Let the Cartographer surface its canonical mismatch error.
		return s.cart.ExploreCtx(ctx, q)
	}
	// Cache misses scan with the cartographer's scan options, keeping
	// the chunk-parallel sharding of Explore and feeding its cumulative
	// verdict counters.
	bctx, sp := obsv.StartSpan(ctx, "base")
	sopts := s.cart.ScanOptsCtx(bctx)
	if s.shards != nil {
		base, err := s.shardedBase(bctx, q, sopts)
		sp.End()
		if err != nil {
			return nil, err
		}
		return s.cart.ExploreSelCtx(ctx, q, base)
	}
	base := bitvec.NewFull(t.NumRows())
	for _, p := range q.Preds {
		if err := obsv.CheckCtx(bctx, "session.base"); err != nil {
			sp.End()
			return nil, err
		}
		bm, err := s.preds.getOrCompute(t, p, sopts)
		if err != nil {
			sp.End()
			return nil, err
		}
		base.And(bm)
		if !base.Any() {
			break
		}
	}
	sp.End()
	return s.cart.ExploreSelCtx(ctx, q, base)
}

// shardedBase assembles Eval(q) shard by shard: per shard, the cached
// (or freshly scanned) per-predicate bitmaps AND together into the
// shard's selection, and the shard selections blit into their row
// ranges of the combined bitmap. Shards fan out over up to workers
// goroutines; the assembled result is the exact concatenation, so it is
// identical at any shard count and parallelism.
func (s *Session) shardedBase(ctx context.Context, q query.Query, sopts engine.ScanOptions) (*bitvec.Vector, error) {
	n := s.shards.NumShards()
	pruner, _ := s.shards.(ShardPruner)
	bitmapper, _ := s.shards.(ShardPredBitmapper)
	// Divide the worker budget: shards are the outer parallel axis; any
	// leftover workers shard each predicate scan chunk-wise.
	workers := sopts.Workers
	inner := sopts
	inner.Workers = workers / n
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	sels := make([]*bitvec.Vector, n)
	err := par.For(workers, n, func(i int) error {
		// Per-shard-work-item cancellation: a dead caller abandons the
		// remaining shard assemblies before their scans or RPCs start.
		if err := obsv.CheckCtx(ctx, "session.base"); err != nil {
			return err
		}
		sctx, ssp := obsv.StartSpan(ctx, fmt.Sprintf("shard %d base", i))
		defer ssp.End()
		sopts := inner
		sopts.Ctx = sctx
		view := s.shards.ShardTable(i)
		sel := bitvec.NewFull(view.NumRows())
		for _, p := range q.Preds {
			if err := obsv.CheckCtx(sctx, "session.base"); err != nil {
				return err
			}
			if pruner != nil && !pruner.ShardMayMatch(i, p) {
				// Manifest statistics prove the predicate is disjoint with
				// this shard: empty selection, no scan, no file open.
				sel.Zero()
				break
			}
			bm, err := s.preds.getOrComputeShard(view, p, i, sopts, s.shardPredCompute(sctx, bitmapper, view, p, i, sopts))
			if err != nil {
				return err
			}
			sel.And(bm)
			if !sel.Any() {
				break
			}
		}
		sels[i] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := bitvec.New(s.cart.Table().NumRows())
	for i, sel := range sels {
		base.OrBlit(s.shards.ShardOffset(i), sel)
	}
	return base, nil
}

// shardPredCompute builds the cache-miss evaluator of one (predicate,
// shard) bitmap. Layouts with a statistics plane (remote shards) are
// asked for the predicate's bitmap first — the whole selection crosses
// as packed words on the stats plane, so no chunk is pulled. A probe
// failure or a local shard falls through to the ordinary scan (whose
// own error names the shard if it is really down). Layouts without the
// probe get a nil compute, so the cache scans directly.
func (s *Session) shardPredCompute(ctx context.Context, bitmapper ShardPredBitmapper, view *storage.Table, p query.Predicate, i int, opts engine.ScanOptions) func() (*bitvec.Vector, error) {
	if bitmapper == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return func() (*bitvec.Vector, error) {
		if bm, ok, err := bitmapper.RemotePredicateBits(ctx, i, p); err == nil && ok {
			return bm, nil
		}
		return engine.EvalPredicateOpts(view, p, opts)
	}
}

// exploreLocked runs (or serves from cache) an exploration and appends a
// node. Caller holds s.mu.
func (s *Session) exploreLocked(ctx context.Context, q query.Query, parent int) (*Node, error) {
	res, err := s.resultFor(ctx, q)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: len(s.nodes), Parent: parent, Query: q, Result: res}
	s.nodes = append(s.nodes, n)
	if parent >= 0 {
		s.nodes[parent].Children = append(s.nodes[parent].Children, n.ID)
	}
	s.current = n.ID
	return n, nil
}

// resultFor serves a result from the cache or computes and caches it.
// Caller holds s.mu; the pipeline runs without the lock would be nicer,
// but explorations are short and correctness is simpler this way.
func (s *Session) resultFor(ctx context.Context, q query.Query) (*core.Result, error) {
	key := q.String()
	if res, ok := s.cache[key]; ok {
		if sp := obsv.SpanFrom(ctx); sp != nil {
			sp.SetAttr("resultCached", true)
		}
		return res, nil
	}
	res, err := s.explore(ctx, q)
	if err != nil {
		return nil, err
	}
	s.cache[key] = res
	return res, nil
}

// Explore starts a new exploration root for q.
func (s *Session) Explore(q query.Query) (*Node, error) {
	return s.ExploreCtx(context.Background(), q)
}

// ExploreCtx is Explore with a request context: when ctx carries a
// trace span, the whole pipeline — base assembly included — records
// into it (see core.Cartographer.ExploreCtx).
func (s *Session) ExploreCtx(ctx context.Context, q query.Query) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exploreLocked(ctx, q, -1)
}

// DrillDown explores region regionIdx of map mapIdx of the current
// node's result — the user "submitting one of the queries for further
// analysis".
func (s *Session) DrillDown(mapIdx, regionIdx int) (*Node, error) {
	return s.DrillDownCtx(context.Background(), mapIdx, regionIdx)
}

// DrillDownCtx is DrillDown with a request context (see ExploreCtx).
func (s *Session) DrillDownCtx(ctx context.Context, mapIdx, regionIdx int) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	if mapIdx < 0 || mapIdx >= len(cur.Result.Maps) {
		return nil, fmt.Errorf("session: map index %d out of range (%d maps)", mapIdx, len(cur.Result.Maps))
	}
	m := cur.Result.Maps[mapIdx]
	if regionIdx < 0 || regionIdx >= len(m.Regions) {
		return nil, fmt.Errorf("session: region index %d out of range (%d regions)", regionIdx, len(m.Regions))
	}
	s.recordInterest(m.Attrs)
	return s.exploreLocked(ctx, m.Regions[regionIdx].Query, cur.ID)
}

// Back moves the cursor to the parent of the current node and returns it.
func (s *Session) Back() (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	if cur.Parent < 0 {
		return nil, fmt.Errorf("session: already at the root")
	}
	s.current = cur.Parent
	return s.nodes[s.current], nil
}

// Current returns the node the cursor is on.
func (s *Session) Current() (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentLocked()
}

func (s *Session) currentLocked() (*Node, error) {
	if s.current < 0 || s.current >= len(s.nodes) {
		return nil, fmt.Errorf("session: no exploration yet")
	}
	return s.nodes[s.current], nil
}

// Node returns the node with the given id.
func (s *Session) Node(id int) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return nil, fmt.Errorf("session: no node %d", id)
	}
	return s.nodes[id], nil
}

// History returns every node in creation order.
func (s *Session) History() []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Node(nil), s.nodes...)
}

// CacheSize returns the number of cached exploration results.
func (s *Session) CacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// PredCacheSize returns the number of cached per-predicate bitmaps.
func (s *Session) PredCacheSize() int { return s.preds.len() }

// PredCacheStats returns the predicate-bitmap cache's (hits, misses).
func (s *Session) PredCacheStats() (hits, misses int) { return s.preds.stats() }

// Prefetch warms the cache with the explorations the user is most likely
// to ask for next: the regions of the current node's top maps, up to
// limit queries. It runs in background goroutines ("during the idle time
// between each query", Section 5.1) and returns immediately; Wait blocks
// until the warm-up finishes.
func (s *Session) Prefetch(limit int) {
	s.mu.Lock()
	cur, err := s.currentLocked()
	if err != nil {
		s.mu.Unlock()
		return
	}
	var todo []query.Query
	for _, m := range cur.Result.Maps {
		for _, r := range m.Regions {
			if len(todo) >= limit {
				break
			}
			if r.Count == 0 {
				continue
			}
			if _, cached := s.cache[r.Query.String()]; !cached {
				todo = append(todo, r.Query)
			}
		}
		if len(todo) >= limit {
			break
		}
	}
	s.mu.Unlock()

	for _, q := range todo {
		q := q
		s.prefetching.Add(1)
		go func() {
			defer s.prefetching.Done()
			res, err := s.explore(context.Background(), q)
			if err != nil {
				return // prefetch is best-effort
			}
			s.mu.Lock()
			if _, dup := s.cache[q.String()]; !dup {
				s.cache[q.String()] = res
			}
			s.mu.Unlock()
		}()
	}
}

// Wait blocks until all in-flight prefetches complete.
func (s *Session) Wait() { s.prefetching.Wait() }
