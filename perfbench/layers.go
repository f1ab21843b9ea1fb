package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
)

// maxRungUnits bounds the units (ops, or session chains) whose calls a
// traced run re-issues on the mirror, sampled evenly over the op list.
const maxRungUnits = 24

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// coldExplores times reps fresh opens — a new Cartographer over the
// in-memory table, or a new shard set (and remote opener) over the
// fixture's manifest — each followed by its first full-table explore.
// It returns open+explore times and, for shard sets, open times (ms).
func coldExplores(fx *fixture, reps int) (cold, open []float64, err error) {
	opts := core.DefaultOptions()
	q := query.New(tableName(fx.spec))
	for r := 0; r < reps; r++ {
		// Start every open from a collected heap, so earlier phases'
		// garbage does not bill its collection to this one.
		runtime.GC()
		start := time.Now()
		var cart *core.Cartographer
		var set *shard.Set
		closeSet := func() {}
		if fx.table != nil {
			cart, err = core.NewCartographer(fx.table, opts)
		} else {
			set, closeSet, err = openSet(fx)
			if err == nil {
				open = append(open, msSince(start))
				cart, err = core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
			}
		}
		if err == nil {
			_, err = cart.Explore(q)
		}
		cold = append(cold, msSince(start))
		closeSet()
		if err != nil {
			return nil, nil, err
		}
	}
	return cold, open, nil
}

// openSet opens the fixture's manifest as the served deployment does,
// with its own chunk cache and, for remote fixtures, its own opener.
// closeSet closes the set and drops the opener's connections.
func openSet(fx *fixture) (set *shard.Set, closeSet func(), err error) {
	so := shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: fx.cacheBudget}}
	var pool *http.Transport
	if fx.spec.remote {
		so.Remote, pool = newOpener()
	}
	set, err = shard.OpenWith(fx.manifest, so)
	closeSet = func() {
		if set != nil {
			_ = set.Close()
		}
		if pool != nil {
			pool.CloseIdleConnections()
		}
	}
	if err != nil {
		closeSet()
		return nil, nil, err
	}
	return set, closeSet, nil
}

// ioCounts are the served deployment's public work counters: chunk
// scan verdicts and store I/O from /api/stats, fabric traffic from the
// remote opener.
type ioCounts struct {
	pruned, full, scanned   int64
	decoded, bytesRead, hit int64
	rpcs, wireBytes, chunks int64
	retries                 int64
}

func (a ioCounts) add(b ioCounts) ioCounts {
	return ioCounts{a.pruned + b.pruned, a.full + b.full, a.scanned + b.scanned,
		a.decoded + b.decoded, a.bytesRead + b.bytesRead, a.hit + b.hit,
		a.rpcs + b.rpcs, a.wireBytes + b.wireBytes, a.chunks + b.chunks, a.retries + b.retries}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return a.add(ioCounts{-b.pruned, -b.full, -b.scanned, -b.decoded, -b.bytesRead, -b.hit,
		-b.rpcs, -b.wireBytes, -b.chunks, -b.retries})
}

func snapshotCounters(d *deployment) ioCounts {
	var st server.StatsDTO
	hc := laneClient()
	defer hc.CloseIdleConnections()
	if resp, err := hc.Get(d.front.url + "/api/stats"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	c := ioCounts{pruned: st.Scan.ChunksPruned, full: st.Scan.ChunksFull, scanned: st.Scan.ChunksScanned}
	if st.Store != nil {
		c.decoded, c.bytesRead, c.hit = st.Store.ChunksDecoded, st.Store.BytesRead, st.Store.CacheHits
	}
	if d.opener != nil {
		f := d.opener.Stats()
		c.rpcs, c.wireBytes, c.chunks, c.retries = f.RPCs, f.BytesIn, f.ChunkFetches, f.Retries
	}
	return c
}

// span is one timed call the benchmark made: name, interval, parent
// (index into the tracer's spans, -1 for roots) and op id.
type span struct {
	Name   string    `json:"name"`
	Op     int       `json:"op"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. addTimed also
// accounts its own cost, the tracing overhead on the timed pass.
type tracer struct {
	mu       sync.Mutex
	spans    []span
	overhead atomic.Int64 // ns spent inside addTimed
}

func newTracer() *tracer { return &tracer{} }

// add records a span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) addTimed(s span) {
	start := time.Now()
	s.Parent = -1
	t.add(s)
	t.overhead.Add(int64(time.Since(start)))
}

// call runs fn inside a span named name under parent and returns the
// span's index.
func (t *tracer) call(name string, op, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.add(span{Name: name, Op: op, Parent: parent, Start: start, End: time.Now()}), err
}

// selfTimes returns every span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.dur() - covered(s, kids[i])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].Start.Before(children[b].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, c := range children {
		s, e := c.Start, c.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// write dumps the spans as JSON: offsets in ns from the first span.
func (t *tracer) write(path string) error {
	if len(t.spans) == 0 {
		return nil
	}
	t0 := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	self := t.selfTimes()
	type out struct {
		span
		ID      int   `json:"id"`
		StartNs int64 `json:"startNs"`
		EndNs   int64 `json:"endNs"`
		SelfNs  int64 `json:"selfNs"`
	}
	all := make([]out, len(t.spans))
	for i, s := range t.spans {
		all[i] = out{span: s, ID: i, StartNs: int64(s.Start.Sub(t0)), EndNs: int64(s.End.Sub(t0)), SelfNs: int64(self[i])}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sumBy returns, per op, the summed duration (ms) of spans named name.
func (t *tracer) sumBy(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.dur().Nanoseconds()) / 1e6
		}
	}
	return out
}

// layerInput is what a traced run hands to layerMetrics.
type layerInput struct {
	s                     spec
	fx                    *fixture
	l                     *OpList // one round's op list
	lx                    *OpList // every round's ops, matching res
	ref                   *reference
	res                   []opResult
	traceWall, cpu        time.Duration
	delta                 ioCounts
	heapBefore, heapAfter float64
	openMs                []float64
	attempted             int
	tr                    *tracer
	tracedir              string
	seed                  int64
}

// mirror is an unserved copy of the served state the rungs run against:
// the same table (or a second open of the same manifest, with its own
// chunk cache and opener), so rungs neither warm nor evict the served
// caches. Its pipeline runs serially, so rung times add up.
type mirror struct {
	table  *storage.Table
	set    *shard.Set
	opts   core.Options
	cart   *core.Cartographer // default options, warm stat cache
	stores []*colstore.Store  // shard files, for the decode rung
	rpc    *remote.Client     // uncached client of shard 0
	// closers release the set, the stores and the openers' connections.
	closers []func()
	// predHits and predMisses total the mirror sessions' predicate-cache
	// lookups.
	predHits, predMisses int
}

func newMirror(fx *fixture) (*mirror, error) {
	m := &mirror{opts: core.DefaultOptions()}
	m.opts.Parallelism = 1
	m.table = fx.table
	if fx.table == nil {
		set, closeSet, err := openSet(fx)
		if err != nil {
			return nil, err
		}
		m.set, m.table = set, set.Table()
		m.closers = append(m.closers, closeSet)
		for _, f := range fx.shardFiles {
			st, err := colstore.OpenWith(f, colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 1})
			if err != nil {
				m.Close()
				return nil, err
			}
			m.stores = append(m.stores, st)
			m.closers = append(m.closers, func() { _ = st.Close() })
		}
	}
	if fx.spec.remote {
		man, err := shard.ReadManifest(fx.manifest)
		if err != nil {
			m.Close()
			return nil, err
		}
		// A one-byte budget keeps only the last chunk, so fetching a
		// rotation of distinct chunks always misses.
		opener, pool := newOpener()
		m.closers = append(m.closers, pool.CloseIdleConnections)
		b, err := opener.OpenShard(man.Shards[0].Locations(), colstore.Options{CacheBytes: 1})
		if err != nil {
			m.Close()
			return nil, err
		}
		c, ok := b.(*remote.Client)
		if !ok {
			m.Close()
			return nil, fmt.Errorf("remote opener returned %T", b)
		}
		m.rpc = c
		m.closers = append(m.closers, func() { _ = c.Close() })
	}
	var err error
	m.cart, err = m.cartFor(m.opts)
	if err == nil {
		_, err = m.cart.Explore(query.New(m.table.Name()))
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

func (m *mirror) cartFor(opts core.Options) (*core.Cartographer, error) {
	if m.cart != nil && opts == m.opts {
		return m.cart, nil
	}
	if m.set != nil {
		return core.NewCartographerWith(m.table, opts, m.set.Provider(opts.Parallelism))
	}
	return core.NewCartographer(m.table, opts)
}

func (m *mirror) newSession() *session.Session {
	if m.set != nil {
		return session.NewSharded(m.cart, m.set)
	}
	return session.New(m.cart)
}

func (m *mirror) Close() {
	for i := len(m.closers) - 1; i >= 0; i-- {
		m.closers[i]()
	}
}

// rungUnits picks up to maxRungUnits units of executed ops, evenly
// spaced over the op list.
func rungUnits(l *OpList, res []opResult) [][]int {
	us := units(l)
	step := max(1, (len(us)+maxRungUnits-1)/maxRungUnits)
	var out [][]int
	for i := 0; i < len(us); i += step {
		var u []int
		for _, j := range us[i] {
			if res[j].done {
				u = append(u, j)
			}
		}
		if len(u) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// rungs re-issues one unit's calls on the mirror, each in its own span
// under a root span per op.
func rungs(tr *tracer, m *mirror, l *OpList, ref *reference, u []int, chunkSeq *int) error {
	var sess *session.Session
	for _, i := range u {
		op := &l.Ops[i]
		root := tr.add(span{Name: "rungs", Op: op.ID, Parent: -1, Start: time.Now()})
		q, cqlOpts := query.Query{}, cql.Options{}
		var err error
		if op.Kind == kindDrill {
			t := ref.drills[op.ID]
			var node *session.Node
			if _, err = tr.call("session.drill", op.ID, root, func() (err error) {
				node, err = sess.DrillDownCtx(context.Background(), t.Map, t.Region)
				return err
			}); err != nil {
				return err
			}
			q = node.Query
		} else {
			if _, err = tr.call("cql.bind", op.ID, root, func() (err error) {
				q, cqlOpts, err = cql.ParseAndBind(op.CQL, m.table)
				return err
			}); err != nil {
				return err
			}
			if op.Kind == kindSessionExplore {
				sess = m.newSession()
				if _, err = tr.call("session.explore", op.ID, root, func() error {
					_, err := sess.ExploreCtx(context.Background(), q)
					return err
				}); err != nil {
					return err
				}
			}
		}
		opts, err := cql.ApplyOptions(m.opts, cqlOpts)
		if err != nil {
			return err
		}
		if err := coreRungs(tr, m, op.ID, root, q, opts); err != nil {
			return fmt.Errorf("op %d rungs: %w", op.ID, err)
		}
		if err := storeRungs(tr, m, op.ID, root, chunkSeq); err != nil {
			return err
		}
		tr.mu.Lock()
		tr.spans[root].End = time.Now()
		tr.mu.Unlock()
	}
	if sess != nil {
		h, miss := sess.PredCacheStats()
		m.predHits += h
		m.predMisses += miss
	}
	return nil
}

// coreRungs times the pipeline on the op's query and then each phase's
// public entry point standalone on the same inputs.
func coreRungs(tr *tracer, m *mirror, op, root int, q query.Query, opts core.Options) error {
	cart, err := m.cartFor(opts)
	if err != nil {
		return err
	}
	t := m.table
	sopts := engine.ScanOptions{Workers: 1}
	base := bitvec.NewFull(t.NumRows())
	if _, err := tr.call("engine.eval", op, root, func() error { return engine.EvalAndIntoOpts(t, q, base, sopts) }); err != nil {
		return err
	}
	var res *core.Result
	if _, err := tr.call("core.pipeline", op, root, func() (err error) {
		res, err = cart.ExploreSelCtx(context.Background(), q, base.Clone())
		return err
	}); err != nil {
		return err
	}
	if res.BaseCount == 0 {
		return nil
	}
	if opts.Screen {
		tr.call("core.screen", op, root, func() error { core.ScreenColumns(t, base, opts.ScreenOpts); return nil })
	}
	for _, c := range res.Candidates {
		attr := c.Attrs[0]
		var preds []query.Predicate
		if _, err := tr.call("core.cut_predicates", op, root, func() (err error) {
			preds, err = core.CutPredicates(t, base, attr, opts.Cut)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.call("engine.partition", op, root, func() error {
			_, err := engine.PartitionBitsOpts(t, attr, preds, base, sopts)
			return err
		}); err != nil {
			return err
		}
	}
	if len(res.Candidates) < 2 {
		return nil
	}
	var dm *core.DistMatrix
	if _, err := tr.call("core.distance", op, root, func() (err error) {
		dm, err = core.DistanceMatrix(res.Candidates, opts.Distance, 1)
		return err
	}); err != nil {
		return err
	}
	var clusters [][]int
	tr.call("core.cluster", op, root, func() error {
		clusters = core.SLINK(len(res.Candidates), dm.At).CutWithBudget(opts.DependencyThreshold, opts.MaxPredicates)
		return nil
	})
	var merged []*core.Map
	for _, cl := range clusters {
		group := make([]*core.Map, len(cl))
		for gi, ci := range cl {
			group[gi] = res.Candidates[ci]
		}
		var mm *core.Map
		_, err := tr.call("core.merge", op, root, func() (err error) {
			mm, err = core.MergeCluster(t, base, q, group, opts.Merge, opts.Cut, opts.MaxRegions)
			return err
		})
		if err == nil {
			merged = append(merged, mm)
		}
	}
	tr.call("core.rank", op, root, func() error { core.RankMaps(merged); return nil })
	return nil
}

// chunksPerOp is how many chunks the decode and RPC rungs fetch per op.
const chunksPerOp = 4

// storeRungs decodes chunksPerOp chunks straight from the shard files
// (RawChunk + DecodeChunk) and, on remote fixtures, fetches as many
// over the uncached client, rotating through every (column, chunk).
func storeRungs(tr *tracer, m *mirror, op, root int, seq *int) error {
	if len(m.stores) == 0 {
		return nil
	}
	for n := 0; n < chunksPerOp; n++ {
		st := m.stores[*seq%len(m.stores)]
		cols, chunks := st.Table().NumCols(), st.NumChunks()
		ci, k := (*seq/len(m.stores))%cols, (*seq/len(m.stores)/cols)%chunks
		*seq++
		if _, err := tr.call("colstore.decode", op, root, func() error { _, err := decodeChunk(st, ci, k); return err }); err != nil {
			return err
		}
		if m.rpc != nil {
			c0 := m.stores[0]
			ci, k := *seq%c0.Table().NumCols(), (*seq/c0.Table().NumCols())%c0.NumChunks()
			if _, err := tr.call("remote.chunk_rpc", op, root, func() error {
				_, _, err := m.rpc.FetchChunkCtx(context.Background(), ci, k)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// perOpMean averages a per-op map over the ops that have an entry.
func perOpMean(byOp map[int]float64) float64 {
	if len(byOp) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range byOp {
		t += v
	}
	return t / float64(len(byOp))
}

// perOpMeanOver averages a per-op map over ops (missing entries are 0).
func perOpMeanOver(byOp map[int]float64, ops []int) float64 {
	if len(ops) == 0 {
		return 0
	}
	t := 0.0
	for _, o := range ops {
		t += byOp[o]
	}
	return t / float64(len(ops))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics runs the rungs of a traced run on a mirror and reduces
// spans and counter deltas to the per-layer metrics.
func layerMetrics(in layerInput) (map[string]Metric, error) {
	tr := in.tr
	m, err := newMirror(in.fx)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	defer m.Close()
	seq := 0
	var rungOps []int
	for _, u := range rungUnits(in.l, in.res[:len(in.l.Ops)]) {
		if err := rungs(tr, m, in.l, in.ref, u, &seq); err != nil {
			return nil, err
		}
		for _, i := range u {
			rungOps = append(rungOps, in.l.Ops[i].ID)
		}
	}
	if err := tr.write(filepath.Join(in.tracedir, fmt.Sprintf("%s-seed%d.json", in.s.name, in.seed))); err != nil {
		return nil, err
	}

	ops := float64(max(in.attempted, 1))
	out := map[string]Metric{}
	set := func(name, unit string, v float64) { out[name] = Metric{v, unit} }

	// server: client round trip minus the in-process call chain of the
	// same op (bind + eval + pipeline, or the session call), p50 over
	// rung ops.
	rtt := map[int]float64{}
	for _, k := range []string{kindExplore, kindSessionExplore, kindDrill} {
		for op, v := range tr.sumBy("client." + k) {
			rtt[op] = v
		}
	}
	bind, pipe := tr.sumBy("cql.bind"), tr.sumBy("core.pipeline")
	evalMs := tr.sumBy("engine.eval")
	sessExp, sessDrill := tr.sumBy("session.explore"), tr.sumBy("session.drill")
	var selfs []float64
	for _, op := range rungOps {
		chain := bind[op] + evalMs[op] + pipe[op]
		if v, ok := sessExp[op]; ok {
			chain = bind[op] + v
		} else if v, ok := sessDrill[op]; ok {
			chain = v
		}
		selfs = append(selfs, rtt[op]-chain)
	}
	set("server.self_ms", "ms", percentile(selfs, 50))
	var respBytes float64
	for i := range in.res {
		if in.res[i].done {
			respBytes += float64(in.ref.respBytes[in.lx.Ops[i].ID])
		}
	}
	set("server.resp_kb", "KB", respBytes/ops/1024)
	set("cql.bind_us", "us", perOpMean(bind)*1000)

	// session
	set("session.explore_ms", "ms", perOpMean(sessExp))
	set("session.drill_ms", "ms", perOpMean(sessDrill))
	set("session.predcache_hit_ratio", "ratio", ratio(float64(m.predHits), float64(m.predHits+m.predMisses)))
	retained := 0.0
	if in.l.Sessions > 0 {
		// The last round's growth: earlier rounds' servers are closed.
		retained = (in.heapAfter - in.heapBefore) / float64(in.l.Sessions)
	}
	set("session.retained_mb", "MB", retained)

	// core: means over rung ops, so the parts add up to the pipeline.
	ladder := 0.0
	for _, name := range []string{"core.screen", "core.distance", "core.cluster", "core.merge", "core.rank", "engine.partition"} {
		v := perOpMeanOver(tr.sumBy(name), rungOps)
		ladder += v
		set(name+"_ms", "ms", v)
	}
	pipeline := perOpMeanOver(pipe, rungOps)
	set("core.pipeline_ms", "ms", pipeline)
	set("core.unattributed_ms", "ms", pipeline-ladder)

	// engine
	set("engine.eval_ms", "ms", perOpMeanOver(evalMs, rungOps))
	c := in.delta
	set("engine.prune_ratio", "ratio", ratio(float64(c.pruned), float64(c.pruned+c.full+c.scanned)))
	var sel []float64
	for i := range in.res {
		if in.res[i].done {
			sel = append(sel, in.ref.selectivity[in.lx.Ops[i].ID])
		}
	}
	set("engine.selectivity", "ratio", mean(sel))

	// colstore
	decodes, readB, hits := float64(c.decoded), float64(c.bytesRead), float64(c.hit)
	set("colstore.decodes_per_op", "count", decodes/ops)
	set("colstore.read_mb_per_op", "MB", readB/ops/1e6)
	set("colstore.cache_hit_ratio", "ratio", ratio(hits, hits+decodes))
	decodeMs := tr.sumBy("colstore.decode")
	set("colstore.decode_us_per_chunk", "us", ratio(perOpMean(decodeMs)*1000, chunksPerOp))

	// shard
	shardOpen := 0.0
	if len(in.openMs) > 0 {
		shardOpen = median(in.openMs)
	}
	set("shard.open_ms", "ms", shardOpen)

	// remote
	set("remote.rpcs_per_op", "count", float64(c.rpcs)/ops)
	set("remote.wire_kb_per_op", "KB", float64(c.wireBytes)/ops/1024)
	set("remote.chunk_fetches_per_op", "count", float64(c.chunks)/ops)
	set("remote.retries_per_op", "count", float64(c.retries)/ops)
	rpcMs := tr.sumBy("remote.chunk_rpc")
	set("remote.chunk_rpc_ms", "ms", ratio(perOpMean(rpcMs), chunksPerOp))

	// process
	set("process.cpu_ms_per_op", "ms", float64(in.cpu.Nanoseconds())/1e6/ops)
	set("trace.overhead_pct", "%", 100*float64(tr.overhead.Load())/(float64(numLanes)*float64(in.traceWall.Nanoseconds())))

	lat := latencies(in.lx, in.res, byKind)
	set("drill_p50_ms", "ms", zeroNaN(percentile(lat["drill"], 50)))
	set("drill_p90_ms", "ms", zeroNaN(percentile(lat["drill"], 90)))
	return out, nil
}

// zeroNaN reports an empty sample's NaN percentile as 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
