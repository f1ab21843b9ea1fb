package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

const (
	tableRows = 1_000_000
	numShards = 4
	// numLanes is the closed loop's client count: one keep-alive
	// connection per lane, one outstanding op per lane.
	numLanes = 2
)

// spec describes one workload: how its op list is sized and generated,
// and what its fixture serves.
type spec struct {
	name string
	why  string
	// opsPerSecond (stateless lists) or sessionsPerSecond (session
	// lists) sizes the op list: a run of --seconds s executes ceil(s ×
	// rate) ops or session chains per round whatever its speed, so every
	// run of a given length does the same work.
	opsPerSecond      float64
	sessionsPerSecond float64
	// cacheShare is the chunk-cache budget as a share of the table's
	// decoded bytes; 0 for in-memory tables.
	cacheShare float64
	// remote serves each shard from its own in-process shard server.
	remote bool
	// events serves the events table instead of census.
	events bool
	// rounds is how many times the timed pass runs the op list, each
	// time on a fresh deployment.
	rounds int
}

var specs = []spec{
	{name: "explore-mem", why: "census 1M in memory, stateless zipf explores: the core pipeline and engine do nearly all the work",
		opsPerSecond: 16.5, rounds: 1},
	{name: "session-events", why: "events 1M in 4 lazy range shards under a 1/4 chunk cache: session drills, pruning, decode and prefetch",
		sessionsPerSecond: 2.4, cacheShare: 0.25, events: true, rounds: 5},
	{name: "explore-remote", why: "census 1M in 4 shards behind loopback shard servers under a 1/3 cache: the remote fabric dominates",
		opsPerSecond: 7.3, cacheShare: 1.0 / 3, remote: true, rounds: 1},
}

func specFor(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// opList generates the workload's fixed op list for a run of seconds
// over a table of rows rows.
func (s spec) opList(seed int64, seconds, rows int) *OpList {
	if s.events {
		n := int(float64(seconds)*s.sessionsPerSecond + 0.999)
		return sessionOps(s.name, seed, n, eventsTSpan(rows))
	}
	return exploreOps(s.name, seed, int(float64(seconds)*s.opsPerSecond+0.999))
}

// listener is one HTTP server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return l, nil
}

// Close stops the server, drops its connections and waits for Serve to
// return.
func (l *listener) Close() {
	_ = l.hs.Close()
	<-l.done
}

// fixture is a workload's data on disk (or in memory) plus its shard
// servers: everything a served instance opens.
type fixture struct {
	spec  spec
	dir   string
	table *storage.Table // explore-mem's served table; nil otherwise
	// manifest is the coordinator's manifest: local shard files for
	// session-events, shard-server URLs for explore-remote.
	manifest    string
	shardFiles  []string
	shardStores []*colstore.Store
	shardSrvs   []*listener
	// decodedBytes is the table's decoded size; cacheBudget the
	// coordinator's chunk-cache budget derived from it.
	decodedBytes int64
	cacheBudget  int64
}

func newFixture(s spec, seed int64, rows int, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{spec: s, dir: dir}
	var t *storage.Table
	if s.events {
		t = eventsTable(rows, seed)
	} else {
		t = datagen.Census(rows, seed)
	}
	if s.cacheShare == 0 {
		fx.table = t
		return fx, nil
	}
	local := filepath.Join(dir, t.Name()+".atlm")
	m, err := shard.WriteSharded(local, t, shard.IngestOptions{Shards: numShards})
	if err != nil {
		return nil, err
	}
	for _, sf := range m.Shards {
		fx.shardFiles = append(fx.shardFiles, filepath.Join(dir, sf.File))
	}
	fx.decodedBytes, err = decodedSize(fx.shardFiles)
	if err != nil {
		return nil, err
	}
	fx.cacheBudget = int64(float64(fx.decodedBytes) * s.cacheShare)
	fx.manifest = local
	if !s.remote {
		return fx, nil
	}
	urls := make([]string, len(fx.shardFiles))
	for i, f := range fx.shardFiles {
		st, err := colstore.OpenWith(f, colstore.Options{Mode: colstore.ModeLazy})
		if err != nil {
			fx.Close()
			return nil, err
		}
		fx.shardStores = append(fx.shardStores, st)
		l, err := listen(remote.NewServer(st).Handler())
		if err != nil {
			fx.Close()
			return nil, err
		}
		fx.shardSrvs = append(fx.shardSrvs, l)
		urls[i] = l.url
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		fx.Close()
		return nil, err
	}
	fx.manifest = filepath.Join(dir, "remote.atlm")
	if err := shard.WriteManifestFile(fx.manifest, rm); err != nil {
		fx.Close()
		return nil, err
	}
	return fx, nil
}

// Close stops the shard servers, closes their stores and removes the
// fixture's files.
func (fx *fixture) Close() {
	for _, l := range fx.shardSrvs {
		l.Close()
	}
	for _, st := range fx.shardStores {
		_ = st.Close()
	}
	_ = os.RemoveAll(fx.dir)
}

// decodedSize decodes every chunk of every shard file once and sums the
// decoded payload bytes: the size an unbounded chunk cache would hold.
func decodedSize(files []string) (int64, error) {
	var total int64
	for _, f := range files {
		st, err := colstore.OpenWith(f, colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 1})
		if err != nil {
			return 0, err
		}
		for ci := 0; ci < st.Table().NumCols(); ci++ {
			for k := 0; k < st.NumChunks(); k++ {
				p, err := decodeChunk(st, ci, k)
				if err != nil {
					st.Close()
					return 0, err
				}
				total += p.MemBytes()
			}
		}
		st.Close()
	}
	return total, nil
}

// decodeChunk reads chunk k of column ci's encoded bytes and decodes
// them standalone — the colstore decode rung, bypassing every cache.
func decodeChunk(st *colstore.Store, ci, k int) (*storage.ChunkPayload, error) {
	raw, _, err := st.RawChunk(ci, k)
	if err != nil {
		return nil, err
	}
	t := st.Table()
	f := t.Schema().Field(ci)
	dictLen := 0
	if f.Type == storage.String {
		lc, ok := t.Column(ci).(*storage.LazyColumn)
		if !ok {
			return nil, fmt.Errorf("column %s is %T, want a lazy column", f.Name, t.Column(ci))
		}
		dict, err := lc.DictValues()
		if err != nil {
			return nil, err
		}
		dictLen = len(dict)
	}
	rows := min(st.ChunkSize, t.NumRows()-k*st.ChunkSize)
	return colstore.DecodeChunk(raw, f, dictLen, rows, k, st.WireVersion())
}

// deployment is one served instance of a fixture: a server on its own
// loopback listener, with its own shard set, chunk cache and remote
// opener. The reference pass and the timed pass use separate ones.
type deployment struct {
	srv    *server.Server
	front  *listener
	set    *shard.Set
	opener *remote.Opener
	fabric *http.Transport // the opener's connection pool
}

// newOpener returns a remote opener with its own connection pool, so
// its idle connections can be closed.
func newOpener() (*remote.Opener, *http.Transport) {
	tr := &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second}
	return remote.NewOpener(remote.Options{Transport: tr}), tr
}

// deploy opens the fixture the way atlasd serves it, with opts as the
// pipeline defaults.
func deploy(fx *fixture, opts core.Options) (*deployment, error) {
	d := &deployment{}
	if fx.table != nil {
		d.srv = server.New(fx.table, opts)
	} else {
		so := shard.Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: fx.cacheBudget}}
		if fx.spec.remote {
			d.opener, d.fabric = newOpener()
			so.Remote = d.opener
		}
		set, err := shard.OpenWith(fx.manifest, so)
		if err != nil {
			return nil, err
		}
		d.set = set
		d.srv = server.NewSharded(set, opts)
	}
	front, err := listen(d.srv.Handler())
	if err != nil {
		d.Close()
		return nil, err
	}
	d.front = front
	return d, nil
}

// Close stops the listener, closes the shard set and drops the
// opener's connections.
func (d *deployment) Close() {
	if d.front != nil {
		d.front.Close()
	}
	if d.set != nil {
		_ = d.set.Close()
	}
	d.closeIdle()
}

// closeIdle drops the opener's idle connections to the shard servers.
func (d *deployment) closeIdle() {
	if d.fabric != nil {
		d.fabric.CloseIdleConnections()
	}
}

// setupRepeated sets up reps times in fresh directories — the fixture
// and the served deployment, everything up to the first timed op — and
// returns every set-up time, keeping the last instance.
func setupRepeated(s spec, seed int64, rows int, workdir string, reps int) (*fixture, *deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC() // collect the previous instance's garbage untimed
		start := time.Now()
		fx, err := newFixture(s, seed, rows, filepath.Join(workdir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := deploy(fx, core.DefaultOptions())
		if err != nil {
			fx.Close()
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			return fx, d, times, nil
		}
		d.Close()
		fx.Close()
	}
}
