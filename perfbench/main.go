// Command perfbench is the repository's benchmark: it serves one of
// three fixed-seed workloads from internal/server on loopback listeners,
// drives it with a two-lane closed loop, checks every answer against a
// sequential reference pass, and prints the run's metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload explore-mem --seed 1 --seconds 10 --trace 0
//	perfbench compare old.jsonl new.jsonl
//
// See README.md for the workloads, the metrics and the compare mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// Tunables of a run's fixed overheads.
const (
	setupReps  = 5  // set-ups per run; setup_s is their median
	coldReps   = 11 // fresh opens per run; cold_explore_ms is their median
	drainLimit = 60 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "explore-mem", "workload: explore-mem, session-events or explore-remote")
	seed := fs.Int64("seed", 1, "seed of the data and the op list")
	seconds := fs.Int("seconds", 10, "run length: sizes the fixed op list")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for data files")
	records := fs.String("records", ".bench_build/records.jsonl", "file the full run record is appended to (empty: none)")
	tracedir := fs.String("tracedir", ".bench_build/traces", "directory traced runs write their spans to")
	_ = fs.Parse(os.Args[1:])

	s, err := specFor(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{spec: s, seed: *seed, seconds: *seconds, traced: *trace == 1, rows: tableRows,
		dir: filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid())), tracedir: *tracedir}
	rec, err := run(cfg)
	_ = os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *records != "" {
		if err := appendRecord(*records, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
			os.Exit(1)
		}
	}
	full, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", full)
	out, _ := json.Marshal(rec.Result)
	fmt.Println(string(out))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is everything a run measured, with the machine it ran on;
// compare mode reads files of these, one per line.
type Record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Traced   bool    `json:"traced"`
	Machine  Machine `json:"machine"`
	Result   Result  `json:"result"`
	// Extra holds measured values that are not among the reported
	// metrics: per-class sample counts, drill latencies, dataset and
	// cache sizes, the error rate.
	Extra    map[string]float64 `json:"extra"`
	Problems []string           `json:"problems,omitempty"`
}

func appendRecord(path string, rec *Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, _ := json.Marshal(rec)
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runStart anchors progress messages.
var runStart = time.Now()

// progress reports a run phase on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealTicks returns the machine's cumulative CPU steal time from
// /proc/stat (time the hypervisor ran someone else while this machine
// wanted the CPU), or 0 where it is unavailable.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// peakRSSMB returns the process's peak resident set size (VmHWM), or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the heap in use. The
// second collection empties sync.Pool victim caches, which survive one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// config is one run's parameters.
type config struct {
	spec     spec
	seed     int64
	seconds  int
	traced   bool
	rows     int    // table size
	dir      string // scratch directory for data files
	tracedir string // where traced runs write spans
}

// run executes one benchmark run: set-up, cold opens, the reference
// pass, the timed pass and the answer check, then (traced runs) the
// layer rungs.
func run(cfg config) (*Record, error) {
	s, seed, traced := cfg.spec, cfg.seed, cfg.traced
	rec := &Record{Workload: s.name, Seed: seed, Seconds: cfg.seconds, Traced: traced, Machine: machine(), Extra: map[string]float64{}}
	l := s.opList(seed, cfg.seconds, cfg.rows)

	fx, d, setupTimes, err := setupRepeated(s, seed, cfg.rows, cfg.dir, setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fx.Close()
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	progress("set-up: %.2fs each", setupTimes)
	rec.Extra["table_rows"] = float64(cfg.rows)
	rec.Extra["decoded_mb"] = float64(fx.decodedBytes) / 1e6
	rec.Extra["cache_budget_mb"] = float64(fx.cacheBudget) / 1e6

	cold, openMs, err := coldExplores(fx, coldReps)
	if err != nil {
		return nil, fmt.Errorf("cold explore: %w", err)
	}

	progress("cold explores: %.0f ms", cold)

	// Every later phase must end with the process back at this goroutine
	// count: servers idle, connections closed, prefetch finished.
	d.closeIdle()
	goroutines := runtime.NumGoroutine()
	ref, err := runReference(fx, l)
	if err != nil {
		return nil, err
	}
	progress("reference pass: %d answers", len(ref.byOp))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		res        []opResult // every round's results, round after round
		delta      ioCounts
		wall, cpu  time.Duration
		steal      float64
		heapBefore float64
		traceWall  time.Duration // the first round's, the one traced
		drained    = true
	)
	for round := 0; round < s.rounds; round++ {
		if round > 0 {
			// A fresh deployment per round: the server never frees its
			// sessions, so rounds bound memory by one round's sessions.
			d.Close()
			next, err := deploy(fx, core.DefaultOptions())
			if err != nil {
				d = nil
				return nil, fmt.Errorf("round %d deployment: %w", round, err)
			}
			d = next
		}
		// Warm the served instance's column-stat cache with one full-table
		// explore: its cold cost is cold_explore_ms, not the timed pass's.
		wc := laneClient()
		_, _, err = post(wc, d.front.url+"/api/explore", map[string]string{"cql": "EXPLORE " + tableName(s)})
		wc.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if !drain(goroutines, drainLimit, d.closeIdle) {
			return nil, fmt.Errorf("servers did not go idle within %v before round %d", drainLimit, round)
		}
		heapBefore = liveHeapMB()
		before := snapshotCounters(d)
		cpu0, steal0 := cpuTime(), stealTicks()
		rtr := tr
		if round > 0 {
			rtr = nil // spans of the first round only: op ids repeat
		}
		r, w := timedPass(d.front.url, l, ref.drills, rtr)
		if round == 0 {
			traceWall = w
		}
		drained = drain(goroutines, drainLimit, d.closeIdle) && drained
		cpu += cpuTime() - cpu0
		steal += stealTicks() - steal0
		wall += w
		delta = delta.add(snapshotCounters(d).sub(before))
		res = append(res, r...)
		progress("timed pass %d: %d ops in %.2fs (drained: %v)", round, len(l.Ops), w.Seconds(), drained)
	}
	rec.Extra["steal_pct"] = 100 * steal / (clockTicks * wall.Seconds() * float64(runtime.NumCPU()))
	// lx is the op list as executed: s.rounds copies of l, matching res.
	lx := &OpList{Workload: l.Workload, Seed: l.Seed, Sessions: l.Sessions * s.rounds}
	for round := 0; round < s.rounds; round++ {
		lx.Ops = append(lx.Ops, l.Ops...)
	}

	attempted, failed, problems := checkAnswers(lx, ref, res)
	rec.Problems = problems
	if !drained {
		rec.Problems = append(rec.Problems, "background work did not drain")
	}
	lat := latencies(lx, res, byKind)
	for i := range res {
		res[i].body = nil
	}
	heapAfter := liveHeapMB()

	m := map[string]Metric{}
	if traced {
		layers, err := layerMetrics(layerInput{s: s, fx: fx, l: l, lx: lx, ref: ref, res: res, traceWall: traceWall, cpu: cpu,
			delta: delta, heapBefore: heapBefore, heapAfter: heapAfter,
			openMs: openMs, attempted: attempted, tr: tr, tracedir: cfg.tracedir, seed: seed})
		if err != nil {
			return nil, err
		}
		m = layers
	} else {
		m["setup_s"] = Metric{median(setupTimes), "s"}
		m["throughput_ops_s"] = Metric{float64(attempted) / wall.Seconds(), "ops/s"}
		m["explore_p50_ms"] = Metric{percentile(lat["explore"], 50), "ms"}
		m["explore_p90_ms"] = Metric{percentile(lat["explore"], 90), "ms"}
		m["cold_explore_ms"] = Metric{median(cold), "ms"}
		m["live_heap_mb"] = Metric{heapAfter, "MB"}
	}
	for class, ms := range latencies(lx, res, byClass) {
		rec.Extra["n_"+class] = float64(len(ms))
		rec.Extra["p50_ms_"+class] = percentile(ms, 50)
	}
	rec.Extra["explore_samples"] = float64(len(lat["explore"]))
	rec.Extra["drill_samples"] = float64(len(lat["drill"]))
	if len(lat["drill"]) > 0 {
		rec.Extra["drill_p50_ms"] = percentile(lat["drill"], 50)
		rec.Extra["drill_p90_ms"] = percentile(lat["drill"], 90)
	}
	rec.Extra["sessions"] = float64(l.Sessions)
	rec.Extra["error_rate"] = float64(failed) / float64(max(attempted, 1))
	rec.Extra["wall_s"] = wall.Seconds()
	rec.Extra["peak_rss_mb"] = peakRSSMB()
	rec.Extra["with_share"], rec.Extra["full_share"] = shares(lx, res)
	rec.Result = Result{Correct: failed == 0 && attempted > 0 && drained, Attempted: attempted, Failed: failed, Metrics: m}
	return rec, nil
}

func tableName(s spec) string {
	if s.events {
		return "events"
	}
	return "census"
}

// runReference answers the op list on a separate deployment of the
// fixture, then closes it.
func runReference(fx *fixture, l *OpList) (*reference, error) {
	d, err := deploy(fx, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("reference deployment: %w", err)
	}
	defer d.Close()
	return referencePass(d.front.url, l)
}

// timedPass runs the op list on the served deployment with numLanes
// closed-loop lanes; traced runs record one span per op as it ends.
func timedPass(base string, l *OpList, drills map[int]drillTarget, tr *tracer) ([]opResult, time.Duration) {
	var done func(i int, r *opResult)
	if tr != nil {
		done = func(i int, r *opResult) {
			tr.addTimed(span{Name: "client." + l.Ops[i].Kind, Op: l.Ops[i].ID, Start: r.start, End: r.start.Add(r.lat)})
		}
	}
	return pass(base, l, numLanes, drills, done)
}

// latencies groups executed ops' client latencies (ms) by the class
// key names.
func latencies(l *OpList, res []opResult, key func(op *Op) string) map[string][]float64 {
	out := map[string][]float64{}
	for i, r := range res {
		if r.done {
			k := key(&l.Ops[i])
			out[k] = append(out[k], float64(r.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// byKind classes ops as "explore" (explores and session-explores) or
// "drill".
func byKind(op *Op) string {
	if op.Kind == kindDrill {
		return "drill"
	}
	return "explore"
}

// byClass classes ops by catalog class, WITH ops and drills apart.
func byClass(op *Op) string {
	switch {
	case op.Kind == kindDrill:
		return "drill"
	case op.With:
		return "with"
	}
	return op.Class
}

// shares returns the shares of executed ops carrying a WITH clause and
// mapping the full table.
func shares(l *OpList, res []opResult) (with, full float64) {
	n := 0
	for i, r := range res {
		if !r.done {
			continue
		}
		n++
		if l.Ops[i].With {
			with++
		}
		if l.Ops[i].Class == "full" {
			full++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return with / float64(n), full / float64(n)
}
