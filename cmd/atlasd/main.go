// Command atlasd serves the mapping engine over HTTP/JSON — the back end
// of the paper's Web GUI layer (Figure 6).
//
// Usage:
//
//	atlasd -addr :8080 -dataset census -rows 100000
//	atlasd -addr :8080 -csv data.csv -table mydata
//	atlasd -addr :8080 -store data.atl
//	atlasd -addr :8080 -store data.atlm
//	atlasd -addr :9001 -serve-shard data.00001.atl
//
// -store serves directly from a columnar store file created with
// "atlas ingest" (or atlas.SaveStore): cold start skips CSV parsing
// entirely and scans prune chunks via the store's zone maps. A shard
// manifest (created with "atlas ingest -shards N") serves the sharded
// table: explorations fan out across shards, sessions keep per-shard
// predicate bitmaps, and GET /api/shards reports the layout with merged
// per-shard statistics. Manifests whose shard locations are http(s)://
// URLs open through the remote shard fabric — this atlasd becomes the
// coordinator of a scale-out deployment.
//
// -serve-shard is the other side of that deployment: it serves ONE .atl
// shard file over the fabric's RPC protocol (statistics plane + chunk
// plane, see internal/remote) instead of the exploration API. Run one
// per shard, then point a coordinator manifest (atlas remote-manifest)
// at the listen addresses.
//
// Endpoints:
//
//	GET  /api/schema
//	POST /api/explore                 {"cql": "EXPLORE census WHERE ..."}
//	POST /api/sessions                → {"id": 0}
//	GET  /api/sessions/{id}
//	GET  /api/sessions/{id}/history
//	POST /api/sessions/{id}/explore   {"cql": "..."}
//	POST /api/sessions/{id}/drill     {"map": 0, "region": 1}
//	POST /api/sessions/{id}/back
//	GET  /api/shards
//	POST /api/explain                 {"cql": "..."} — dry-run plan, no chunk I/O
//	GET  /api/querylog                ?slow=1 ?errors=1 ?op=drill ?since=42 ?n=50
//	GET  /api/workload                captured workload export (JSONL)
//	GET  /api/stats
//	GET  /metrics
//
// Every query answer carries its resource ledger; ?profile=1 adds the
// span tree and ?profile=perfetto the same trace as Chrome trace-event
// JSON. -pprof additionally mounts /debug/pprof/.
//
// With -serve-shard, the /shard/v1/* fabric endpoints are served
// instead (meta, zones, dict, chunk, batchstats, partials, predcount,
// health, stats).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/remote"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataset = flag.String("dataset", "census", "bundled dataset: census, body, sky, orders")
		rows    = flag.Int("rows", 100000, "rows to generate for bundled datasets")
		seed    = flag.Int64("seed", 1, "generator seed")
		csvPath = flag.String("csv", "", "serve a CSV file instead of a bundled dataset")
		tblName = flag.String("table", "", "table name for -csv")
		store   = flag.String("store", "", "serve a columnar store file (.atl) created with 'atlas ingest'")
		shardF  = flag.String("serve-shard", "", "serve ONE .atl shard file over the remote shard fabric instead of the exploration API")
		lazy    = flag.Bool("lazy", false, "force lazy (memory-tiered) store opens: chunks decode on first touch")
		eager   = flag.Bool("eager", false, "force eager store opens (full decode up front)")
		cacheB  = flag.Int64("cachebudget", 0, "decoded-chunk cache budget in bytes for lazy opens (0 = env/unbounded)")
		deferS  = flag.Bool("defer", false, "defer opening shard files until first touch (sharded stores)")
		slowQ   = flag.Duration("slow-query", 0, "log explorations (or, with -serve-shard, fabric requests) that take at least this long (0 = disabled)")
		pprofF  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (coordinator and -serve-shard)")
		recordW = flag.String("record-workload", "", "append the query workload (JSONL, replayable with 'atlasbench -replay') to this file as queries finish")

		// Overload-safety knobs (see README "Production hardening").
		queryTimeout = flag.Duration("query-timeout", 0, "per-query wall-clock deadline; requests may shorten it via X-Atlas-Query-Timeout (0 = none)")
		maxConc      = flag.Int("max-concurrent", 0, "queries executing at once before new ones queue (0 = unlimited)")
		queueDepth   = flag.Int("queue-depth", 64, "queries allowed to wait for a slot; excess is shed with 429")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max wait in the admission queue before shedding with 429 (0 = wait until the client gives up)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT: budget for in-flight queries to finish before connections close")

		// Remote-fabric failover knobs (coordinator over a manifest with
		// http(s):// shard locations; ignored otherwise).
		fabTimeout  = flag.Duration("fabric-timeout", 0, "per-request timeout against remote shards (0 = 30s default)")
		fabRetries  = flag.Int("fabric-retries", 0, "extra attempts after a transient remote failure, on top of one attempt per replica (0 = default 2, negative = none)")
		breakerTrip = flag.Int("breaker-threshold", 0, "consecutive failures before a replica's circuit breaker trips (0 = default 3, negative = never)")
		breakerCool = flag.Duration("breaker-cooldown", 0, "how long a tripped replica stays out of rotation before a half-open probe (0 = 2s default)")
	)
	flag.Parse()

	if *shardF != "" {
		co := colstore.Options{CacheBytes: *cacheB}
		switch {
		case *lazy:
			co.Mode = colstore.ModeLazy
		case *eager:
			co.Mode = colstore.ModeEager
		}
		st, err := colstore.OpenWith(*shardF, co)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atlasd:", err)
			os.Exit(1)
		}
		rs := remote.NewServer(st)
		if *slowQ > 0 {
			rs.SlowThreshold = *slowQ
			rs.SlowLog = log.Printf
		}
		mux := http.NewServeMux()
		mux.Handle("/", rs.Handler())
		mux.Handle("GET /metrics", shardRegistry(rs, st).Handler())
		if *pprofF {
			mountPprof(mux)
		}
		t := st.Table()
		log.Printf("atlasd: serving shard %q (table %q, %d rows, %d chunks) on %s",
			*shardF, t.Name(), t.NumRows(), st.NumChunks(), *addr)
		// On SIGTERM the shard fails health checks (coordinators rotate to
		// replicas) and finishes in-flight fabric requests within the
		// drain budget.
		if err := serveWithDrain(*addr, mux, *drainTimeout, func() { rs.SetDraining(true) }); err != nil {
			log.Fatal(err)
		}
		return
	}

	var srv *server.Server
	if *store != "" {
		sc := server.StoreConfig{Defer: *deferS}
		sc.Remote = remote.NewOpener(remote.Options{
			Timeout:          *fabTimeout,
			Retries:          *fabRetries,
			BreakerThreshold: *breakerTrip,
			BreakerCooldown:  *breakerCool,
		})
		sc.Store.CacheBytes = *cacheB
		switch {
		case *lazy:
			sc.Store.Mode = colstore.ModeLazy
		case *eager:
			sc.Store.Mode = colstore.ModeEager
		}
		s, err := server.NewFromStoreWith(*store, atlas.DefaultOptions(), sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atlasd:", err)
			os.Exit(1)
		}
		srv = s
	} else {
		table, err := loadTable(*dataset, *rows, *seed, *csvPath, *tblName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atlasd:", err)
			os.Exit(1)
		}
		srv = server.New(table, atlas.DefaultOptions())
	}
	if *slowQ > 0 {
		srv.SetSlowQueryLog(*slowQ, nil)
	}
	if *recordW != "" {
		f, err := os.OpenFile(*recordW, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atlasd: -record-workload:", err)
			os.Exit(1)
		}
		defer f.Close()
		srv.RecordWorkloadTo(f)
		log.Printf("atlasd: recording workload to %s", *recordW)
	}
	srv.SetAdmission(server.AdmissionConfig{
		MaxConcurrent: *maxConc,
		QueueDepth:    *queueDepth,
		QueueTimeout:  *queueTimeout,
		QueryTimeout:  *queryTimeout,
	})
	table := srv.Table()
	handler := srv.Handler()
	if *pprofF {
		// The API handler owns "/" via its middleware; route /debug/pprof/
		// ahead of it on an outer mux.
		outer := http.NewServeMux()
		mountPprof(outer)
		outer.Handle("/", handler)
		handler = outer
	}
	log.Printf("atlasd: serving table %q (%d rows) on %s", table.Name(), table.NumRows(), *addr)
	// On SIGTERM/SIGINT: /healthz starts failing and new queries are
	// refused with 503, in-flight ones finish (or hit their -query-timeout
	// deadline) within the drain budget, then the process exits 0.
	if err := serveWithDrain(*addr, handler, *drainTimeout, func() { srv.SetDraining(true) }); err != nil {
		log.Fatal(err)
	}
}

// serveWithDrain runs an HTTP server until SIGTERM/SIGINT, then drains:
// onDrain flips the role's drain switch (health fails, admissions are
// refused), in-flight requests get drainTimeout to finish, and past the
// budget every live request context is cancelled — queries unwind at
// the next chunk boundary — before connections close. A clean drain
// returns nil and the process exits 0.
func serveWithDrain(addr string, handler http.Handler, drainTimeout time.Duration, onDrain func()) error {
	// Requests derive from baseCtx so the drain deadline can cancel
	// whatever refuses to finish on its own.
	baseCtx, cancelInflight := context.WithCancel(context.Background())
	defer cancelInflight()
	srv := &http.Server{
		Addr:        addr,
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}
	stop() // a second signal falls back to the default hard kill
	log.Printf("atlasd: signal received, draining (budget %s)", drainTimeout)
	onDrain()
	// Grace window before the listener closes: health checks answer 503
	// and the gate refuses new queries while load balancers rotate away.
	// It comes out of the drain budget and is capped so tiny budgets
	// still leave time for the in-flight work.
	grace := drainTimeout / 4
	if grace > 500*time.Millisecond {
		grace = 500 * time.Millisecond
	}
	time.Sleep(grace)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout-grace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Budget spent: cancel the stragglers' contexts so they unwind
		// with a ledgered cancellation, then close their connections.
		log.Printf("atlasd: drain budget exceeded, cancelling in-flight requests: %v", err)
		cancelInflight()
		_ = srv.Close()
	}
	log.Printf("atlasd: drained, exiting")
	return nil
}

// mountPprof wires the net/http/pprof handlers under /debug/pprof/ —
// the -pprof flag, for live CPU/heap/goroutine profiling of a
// coordinator or shard server.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// shardRegistry builds the metric registry a -serve-shard process
// scrapes at GET /metrics: the fabric server's request counters plus the
// underlying store's I/O counters, all sampled on scrape.
func shardRegistry(rs *remote.Server, st *colstore.Store) *obsv.Registry {
	r := obsv.NewRegistry()
	fab := map[string]string{"layer": "fabric"}
	r.CounterFunc("atlas_shard_requests_total", "fabric requests served (including errors)", fab, func() float64 {
		return float64(rs.Stats().Requests)
	})
	r.CounterFunc("atlas_shard_bytes_out_total", "response body bytes of successful answers", fab, func() float64 {
		return float64(rs.Stats().BytesOut)
	})
	r.CounterFunc("atlas_shard_stat_computes_total", "per-attribute statistics computed (stat-cache misses)", fab, func() float64 {
		return float64(rs.Stats().StatComputes)
	})
	sto := map[string]string{"layer": "store"}
	r.CounterFunc("atlas_store_bytes_read_total", "bytes read from segment files", sto, func() float64 {
		return float64(st.IOStats().BytesRead)
	})
	r.CounterFunc("atlas_store_chunks_decoded_total", "chunk payloads decoded from storage", sto, func() float64 {
		return float64(st.IOStats().ChunksDecoded)
	})
	r.CounterFunc("atlas_store_cache_hits_total", "decoded-chunk cache hits", sto, func() float64 {
		return float64(st.IOStats().CacheHits)
	})
	r.GaugeFunc("atlas_store_cache_bytes", "decoded-chunk cache residency", sto, func() float64 {
		return float64(st.IOStats().CacheBytes)
	})
	obsv.RegisterBuildInfo(r, colstore.Version)
	obsv.RegisterGoRuntime(r)
	return r
}

func loadTable(dataset string, rows int, seed int64, csvPath, tblName string) (*atlas.Table, error) {
	if csvPath != "" {
		return atlas.LoadCSVFile(tblName, csvPath)
	}
	switch dataset {
	case "census":
		return atlas.CensusDataset(rows, seed), nil
	case "body":
		t, _ := atlas.BodyMetricsDataset(rows, seed)
		return t, nil
	case "sky":
		return atlas.SkySurveyDataset(rows, seed), nil
	case "orders":
		orders, customers := atlas.OrdersDataset(rows, rows/40+1, seed)
		return atlas.JoinFK(orders, "cid", customers, "cid", "orders")
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}
